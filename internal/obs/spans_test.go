package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestSpanTracerHierarchyAndRing(t *testing.T) {
	tr := NewSpanTracer(16, 42)
	ctx, root := tr.Start(context.Background(), "pipeline.train")
	if SpanID(ctx) != root.id || root.id == 0 {
		t.Fatalf("context does not carry the root span: ctx=%d span=%d", SpanID(ctx), root.id)
	}
	_, child := tr.Start(ctx, "pipeline.fetch")
	child.SetWindows(96)
	child.End()
	root.SetErr(errors.New("boom"))
	root.End()
	root.End() // idempotent

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot = %d spans, want 2", len(spans))
	}
	if spans[0].Name != "pipeline.fetch" || spans[0].Parent != root.id {
		t.Fatalf("child span = %+v, want parent %d", spans[0], root.id)
	}
	if spans[0].Windows != 96 {
		t.Fatalf("child windows = %d", spans[0].Windows)
	}
	if spans[1].Name != "pipeline.train" || spans[1].Parent != 0 || spans[1].Err != "boom" {
		t.Fatalf("root span = %+v", spans[1])
	}
}

func TestSpanTracerDeterministicIDs(t *testing.T) {
	mint := func() []uint64 {
		tr := NewSpanTracer(16, 7)
		var ids []uint64
		ctx := context.Background()
		for _, name := range []string{"a", "b", "c"} {
			_, s := tr.Start(ctx, name)
			ids = append(ids, s.id)
			s.End()
		}
		return ids
	}
	a, b := mint(), mint()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span IDs not deterministic per seed: %v vs %v", a, b)
		}
		if a[i] == 0 {
			t.Fatalf("zero span ID minted")
		}
	}
	// A different seed must mint a different stream.
	other := NewSpanTracer(16, 8)
	_, s := other.Start(context.Background(), "a")
	if s.id == a[0] {
		t.Fatalf("different seeds minted the same first ID %d", a[0])
	}
}

func TestSpanTracerRingEvictsOldest(t *testing.T) {
	tr := NewSpanTracer(16, 1)
	for i := 0; i < 40; i++ {
		_, s := tr.Start(context.Background(), "tick")
		s.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 16 {
		t.Fatalf("resident = %d, want capacity 16", len(spans))
	}
}

func TestSpanTracerNilSafe(t *testing.T) {
	var tr *SpanTracer
	ctx, s := tr.Start(context.Background(), "noop")
	if s != nil {
		t.Fatalf("nil tracer returned a span")
	}
	s.SetWindows(1)
	s.SetErr(errors.New("x"))
	s.End()
	if SpanID(ctx) != 0 {
		t.Fatalf("nil tracer put a span in the context")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
}

func TestSpanTracerConcurrent(t *testing.T) {
	tr := NewSpanTracer(64, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, parent := tr.Start(context.Background(), "outer")
				_, inner := tr.Start(ctx, "inner")
				inner.End()
				parent.End()
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, s := range tr.Snapshot() {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestSpansHandler(t *testing.T) {
	tr := NewSpanTracer(16, 5)
	ctx, root := tr.Start(context.Background(), "service.ingest")
	_, ext := tr.Start(ctx, "telemetry.extract")
	ext.End()
	root.End()

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if rec.Code != 200 {
		t.Fatalf("spans = %d", rec.Code)
	}
	var page struct {
		Capacity int    `json:"capacity"`
		Spans    []Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Capacity != 16 || len(page.Spans) != 2 {
		t.Fatalf("page = %+v", page)
	}

	// Name-prefix filter.
	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?name=telemetry.", nil))
	_ = json.Unmarshal(rec.Body.Bytes(), &page)
	if len(page.Spans) != 1 || page.Spans[0].Name != "telemetry.extract" {
		t.Fatalf("filtered page = %+v", page)
	}
}
