package par

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// panicEntryPoints runs every pool entry point over n tasks, with the
// task at index p (the chunk holding p, for the chunk variants) panicking
// with v, and counts the tasks that ran.
func panicEntryPoints(n, p int, v any) map[string]func(workers int, ran *atomic.Int64) {
	task := func(ran *atomic.Int64, i int) {
		ran.Add(1)
		if i == p {
			panic(v)
		}
	}
	chunk := func(ran *atomic.Int64, lo, hi int) {
		for i := lo; i < hi; i++ {
			task(ran, i)
		}
	}
	ctx := context.Background()
	return map[string]func(int, *atomic.Int64){
		"ForEachN": func(w int, ran *atomic.Int64) { ForEachN(n, w, func(i int) { task(ran, i) }) },
		"ForEachChunk": func(w int, ran *atomic.Int64) {
			ForEachChunk(n, w, func(lo, hi int) { chunk(ran, lo, hi) })
		},
		"Map": func(w int, ran *atomic.Int64) { Map(n, w, func(i int) int { task(ran, i); return i }) },
		"ForEachNCtx": func(w int, ran *atomic.Int64) {
			ForEachNCtx(ctx, n, w, func(i int) { task(ran, i) })
		},
		"ForEachChunkCtx": func(w int, ran *atomic.Int64) {
			ForEachChunkCtx(ctx, n, w, func(lo, hi int) { chunk(ran, lo, hi) })
		},
		"MapCtx": func(w int, ran *atomic.Int64) {
			MapCtx(ctx, n, w, func(i int) int { task(ran, i); return i })
		},
	}
}

// recovered runs f and returns what a recover on the calling goroutine
// sees.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestTaskPanicReraisedOnCaller: at 1, 2 and 8 workers, a task panic in
// any entry point reaches the caller as a *Panic holding the task's panic
// value and the stack of the goroutine that raised it, and the call leaves
// no goroutine running.
func TestTaskPanicReraisedOnCaller(t *testing.T) {
	const n, p = 64, 37
	sentinel := errors.New("task 37 failed")
	for name, run := range panicEntryPoints(n, p, sentinel) {
		for _, workers := range []int{1, 2, 8} {
			before := runtime.NumGoroutine()
			var ran atomic.Int64
			v := recovered(func() { run(workers, &ran) })
			pv, ok := v.(*Panic)
			if !ok {
				t.Fatalf("%s workers=%d: recovered %T (%v), want *Panic", name, workers, v, v)
			}
			if pv.Value != sentinel || !errors.Is(pv, sentinel) {
				t.Fatalf("%s workers=%d: panic value %v, want %v", name, workers, pv.Value, sentinel)
			}
			if !strings.Contains(string(pv.Stack), "panicEntryPoints") {
				t.Fatalf("%s workers=%d: stack does not show the panicking task:\n%s", name, workers, pv.Stack)
			}
			if workers == 1 && ran.Load() != p+1 {
				t.Fatalf("%s inline: %d tasks ran, want the %d up to the panic", name, ran.Load(), p+1)
			}
			// Workers have all returned from their tasks; wait (bounded)
			// for the goroutines themselves to exit.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%s workers=%d: %d goroutines left running", name, workers, runtime.NumGoroutine()-before)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestNestedTaskPanicKeepsInnermostStack: a panic inside a pool call
// nested in another pool's task surfaces once, not wrapped twice.
func TestNestedTaskPanicKeepsInnermostStack(t *testing.T) {
	v := recovered(func() {
		ForEachN(4, 2, func(int) {
			ForEachN(4, 2, func(j int) {
				if j == 3 {
					panic("inner")
				}
			})
		})
	})
	pv, ok := v.(*Panic)
	if !ok || pv.Value != "inner" {
		t.Fatalf("recovered %#v, want *Panic{Value: \"inner\"}", v)
	}
}
