package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 80, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "a.child", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [80,100]: 70 of the parent's 100.
	want := []int64{30, 20, 30, 40, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestTracerSelfTimesSumToWall(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run")
	for i := 1; i <= 3; i++ {
		tr.setIter(i)
		it := tr.begin("iter")
		sp := tr.begin("system.build")
		tr.end(sp)
		sp = tr.begin("system.loop")
		inner := tr.begin("system.fingerprint")
		tr.end(inner)
		tr.end(sp)
		tr.end(it)
	}
	tr.end(root)
	layers, ratio := byName(tr.spans)
	if ratio < 0.999999 || ratio > 1.000001 {
		t.Errorf("self times sum to %v of the wall time, want 1", ratio)
	}
	if layers["iter"].Count != 3 || layers["system.fingerprint"].Count != 3 {
		t.Errorf("layer counts: %+v", layers)
	}
	for _, s := range tr.spans {
		if s.Name == "system.build" && s.Iter == 0 {
			t.Errorf("span %d lost its iteration id", s.ID)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.setIter(2)
	tr.end(tr.begin("x"))
}
