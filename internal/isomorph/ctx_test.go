package isomorph

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
)

// hardInstance builds a pattern/target pair whose search space is large
// enough to outlive short deadlines: an unlabeled 8-node path matched into
// an unlabeled 2D grid has a huge number of embeddings.
func hardInstance() (*graph.Graph, *graph.Graph) {
	p := graph.New("path")
	p.AddNodes(8, "")
	for i := 0; i < 7; i++ {
		p.MustAddEdge(i, i+1, "")
	}
	const side = 40
	t := graph.New("grid")
	t.AddNodes(side*side, "")
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			if c+1 < side {
				t.MustAddEdge(v, v+1, "")
			}
			if r+1 < side {
				t.MustAddEdge(v, v+side, "")
			}
		}
	}
	return p, t
}

func TestEnumerateCanceledContext(t *testing.T) {
	p, g := hardInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Count(p, g, Options{Ctx: ctx})
	if !res.Truncated || res.Reason != StopCanceled {
		t.Fatalf("pre-canceled context: Truncated=%v Reason=%q", res.Truncated, res.Reason)
	}
	if res.Steps != 0 {
		t.Fatalf("pre-canceled context expanded %d steps", res.Steps)
	}
}

// pollCtx is a context whose Err reports context.Canceled from the
// (n+1)th call on: a cancellation that lands after exactly n polls,
// however fast or slow the host runs the search.
type pollCtx struct {
	context.Context
	n int
}

func (c *pollCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

func TestEnumerateDeadline(t *testing.T) {
	p, g := hardInstance()
	budget := 50 * time.Millisecond
	const polls = 50
	ctx := &pollCtx{Context: context.Background(), n: polls}
	start := time.Now()
	res := Count(p, g, Options{Ctx: ctx})
	elapsed := time.Since(start)
	if !res.Truncated || res.Reason != StopCanceled {
		t.Fatalf("deadline search: Truncated=%v Reason=%q steps=%d", res.Truncated, res.Reason, res.Steps)
	}
	// The start-of-search poll and the in-search polls up to the cancel
	// see a live context; the search stops at the first poll that does
	// not, so it expands exactly polls*DefaultCheckEvery steps.
	if want := polls * DefaultCheckEvery; res.Steps != want {
		t.Fatalf("search stopped after %d steps, want %d", res.Steps, want)
	}
	// The search must stop promptly after the cancellation. The polling
	// interval is ~microseconds of work; 10x headroom keeps slow CI green.
	if elapsed > 10*budget {
		t.Fatalf("search ran %v past a %v budget", elapsed, budget)
	}
	if res.Embeddings == 0 {
		t.Fatal("expected partial embeddings before the deadline on an embedding-rich instance")
	}
}

func TestStopReasonSteps(t *testing.T) {
	p, g := hardInstance()
	res := Count(p, g, Options{MaxSteps: 1000})
	if !res.Truncated || res.Reason != StopSteps {
		t.Fatalf("step budget: Truncated=%v Reason=%q", res.Truncated, res.Reason)
	}
}

func TestStopReasonNoneOnCompletion(t *testing.T) {
	p := graph.New("edge")
	p.AddNodes(2, "")
	p.MustAddEdge(0, 1, "")
	g := graph.New("tri")
	g.AddNodes(3, "")
	g.MustAddEdge(0, 1, "")
	g.MustAddEdge(1, 2, "")
	g.MustAddEdge(0, 2, "")
	ctx := context.Background()
	res := Count(p, g, Options{Ctx: ctx})
	if res.Truncated || res.Reason != StopNone {
		t.Fatalf("complete search: Truncated=%v Reason=%q", res.Truncated, res.Reason)
	}
	if res.Embeddings != 6 {
		t.Fatalf("edge in triangle: %d embeddings", res.Embeddings)
	}
	// MaxEmbeddings is a satisfied request, not a truncation.
	res = Count(p, g, Options{MaxEmbeddings: 2, Ctx: ctx})
	if res.Truncated || res.Reason != StopNone || res.Embeddings != 2 {
		t.Fatalf("capped search: %+v", res)
	}
}

func TestContextResultsMatchUncanceled(t *testing.T) {
	// A live context must not change the result of a completed search.
	p := graph.New("p")
	p.AddNodes(3, "A")
	p.MustAddEdge(0, 1, "x")
	p.MustAddEdge(1, 2, "x")
	g := graph.New("g")
	g.AddNodes(6, "A")
	for i := 0; i < 5; i++ {
		g.MustAddEdge(i, i+1, "x")
	}
	plain := Count(p, g, Options{})
	withCtx := Count(p, g, Options{Ctx: context.Background(), CheckEvery: 1})
	if plain.Embeddings != withCtx.Embeddings || plain.Steps != withCtx.Steps {
		t.Fatalf("ctx changed result: %+v vs %+v", plain, withCtx)
	}
}
