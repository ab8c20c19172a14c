package heap

import (
	"reflect"
	"testing"

	"fleetsim/internal/mem"
	"fleetsim/internal/units"
	"fleetsim/internal/vmem"
)

// hasPointers reports whether values of type t contain a Go pointer that
// the runtime's collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	default:
		return false
	}
}

// TestObjectTablesPointerFree guards the columnar object table: every
// per-object column must hold pointer-free elements, so the tables are
// noscan memory Go's collector skips. Columns are found by shape — the
// slice fields of Heap whose length and capacity equal the object
// table's — so a column added later is checked without editing this
// test, and one grown outside growSoA shows up as a missing column.
func TestObjectTablesPointerFree(t *testing.T) {
	h := newTestHeap()
	for i := 0; i < 1000; i++ {
		h.Alloc(64, EpochForeground, 0)
	}
	n, c := h.ObjectTableSize(), cap(h.liveb)
	v := reflect.ValueOf(h).Elem()
	var cols []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice || f.Len() != n || f.Cap() != c {
			continue
		}
		name := v.Type().Field(i).Name
		cols = append(cols, name)
		if et := f.Type().Elem(); hasPointers(et) {
			t.Errorf("object column %s has pointerful element type %v", name, et)
		}
	}
	// msize, liveb, regionIdx, seq, addr, epoch, allocGC, lastAccess,
	// espan, ecap.
	if len(cols) < 10 {
		t.Errorf("found %d object columns %v, want at least 10 sharing the table's length and capacity", len(cols), cols)
	}
	if hasPointers(reflect.TypeOf(Object{})) {
		t.Error("the Object view holds a pointer")
	}
}

// BenchmarkHeapAlloc measures the mutator's allocation path: one Alloc
// plus one AddRef from an earlier object per op, building fresh heaps of
// heapObjects objects so the column growth of a new app heap is included.
func BenchmarkHeapAlloc(b *testing.B) {
	const heapObjects = 4096
	var h *Heap
	var ids []ObjectID
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%heapObjects == 0 {
			b.StopTimer()
			phys := mem.NewPhysical(64 * units.MiB)
			vm := vmem.NewManager(phys, vmem.NewSwapDevice(vmem.DefaultSwapConfig()))
			h = New(mem.NewAddressSpace("bench"), vm)
			ids = ids[:0]
			b.StartTimer()
		}
		id, _, _ := h.Alloc(int32(16+(i*37)%240), EpochForeground, 0)
		if len(ids) > 0 {
			h.AddRef(ids[(i*7919)%len(ids)], id, 0)
		}
		ids = append(ids, id)
	}
}
