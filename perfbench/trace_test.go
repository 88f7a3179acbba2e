package main

import "testing"

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 60},
		{ID: 4, Parent: 2, Name: "leaf", Start: 12, End: 28},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 20 - 10, 2: 20 - 16, 3: 10, 4: 16}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// Two concurrent calls under one parent cover [10,40] together.
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 50},
		{ID: 2, Parent: 1, Name: "reader", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "writer", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "inside", Start: 22, End: 25},
	}
	if got := selfTimes(spans)[1]; got != 50-30 {
		t.Fatalf("self %d, want %d", got, 50-30)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "call", Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: "early", Start: 50, End: 120},
		{ID: 3, Parent: 1, Name: "late", Start: 190, End: 260},
		{ID: 4, Parent: 1, Name: "outside", Start: 300, End: 400},
	}
	if got := selfTimes(spans)[1]; got != 100-20-10 {
		t.Fatalf("self %d, want %d", got, 100-20-10)
	}
}

func TestLayerSelfSumsByName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.ingest", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "server.ingest", Start: 20, End: 35},
	}
	got := layerSelf(spans)
	if got["server.ingest"] != 25 || got["run"] != 75 {
		t.Fatalf("layer self times %v", got)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded span %d", id)
	}
}

func TestTracerDropsOpenSpans(t *testing.T) {
	tr := newTracer("t")
	done := tr.begin("done", 0)
	tr.begin("open", done)
	tr.end(done)
	spans := tr.snapshot()
	if len(spans) != 1 || spans[0].Name != "done" || spans[0].Run != "t" {
		t.Fatalf("spans %v", spans)
	}
}
