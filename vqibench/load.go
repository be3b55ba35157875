package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what happened to one scheduled request. Offsets are from the
// start of the phase. Released-Due is how late the generator itself ran;
// Sent-Released is time spent waiting for a free connection, the client
// side of the server's backlog.
type outcome struct {
	Released time.Duration
	Sent     time.Duration
	Done     time.Duration
	Status   int
	Body     []byte
	Err      string
	Unsent   bool // dropped by an aborted capacity step
}

func (o *outcome) ok() bool { return !o.Unsent && o.Err == "" && o.Status/100 == 2 }

// timed is a request placed on a phase timeline.
type timed struct {
	req  *request
	due  time.Duration
	lane int
}

// laneConns: lane 0 carries reads on every connection but the writer's;
// lane 1 is the single writer of the maintain workload.
func laneConns(conns int, hasWriter bool) [2]int {
	if !hasWriter {
		return [2]int{conns, 0}
	}
	if conns < 2 {
		return [2]int{1, 1}
	}
	return [2]int{conns - 1, 1}
}

// runOpenLoop sends every item at its due time on the first free
// connection of its lane, never waiting for earlier replies. It returns one
// outcome per item. abortBacklog > 0 stops releasing new requests once
// more than that many are due but unfinished, and stopAt > 0 sends nothing
// new after that offset; what remains is marked Unsent.
func runOpenLoop(ctx context.Context, base string, items []timed, conns [2]int, abortBacklog int, stopAt time.Duration) ([]outcome, bool) {
	out := make([]outcome, len(items))
	var lanes [2]chan int
	var wg sync.WaitGroup
	var finished atomic.Int64
	var aborted atomic.Bool
	start := time.Now()
	for l := range lanes {
		lanes[l] = make(chan int, len(items)) // every item fits: release never blocks
		for c := 0; c < conns[l]; c++ {
			client := &http.Client{
				Timeout: 30 * time.Second,
				Transport: &http.Transport{
					MaxConnsPerHost:     1,
					MaxIdleConnsPerHost: 1,
					DisableCompression:  true,
				},
			}
			wg.Add(1)
			go func(ch chan int) {
				defer wg.Done()
				defer client.CloseIdleConnections()
				for i := range ch {
					o := &out[i]
					if aborted.Load() || ctx.Err() != nil || (stopAt > 0 && time.Since(start) > stopAt) {
						o.Unsent = true
						finished.Add(1)
						continue
					}
					o.Sent = time.Since(start)
					o.Status, o.Body, o.Err = send(ctx, client, base, items[i].req)
					o.Done = time.Since(start)
					finished.Add(1)
				}
			}(lanes[l])
		}
	}
	released := 0
	for i, it := range items {
		if d := time.Until(start.Add(it.due)); d > 0 {
			time.Sleep(d)
		}
		if abortBacklog > 0 && released-int(finished.Load()) > abortBacklog {
			aborted.Store(true)
			for j := i; j < len(items); j++ {
				out[j].Unsent = true
			}
			break
		}
		out[i].Released = time.Since(start)
		lanes[it.lane] <- i
		released++
	}
	for _, ch := range lanes {
		close(ch)
	}
	wg.Wait()
	return out, aborted.Load()
}

func send(ctx context.Context, client *http.Client, base string, r *request) (int, []byte, string) {
	method := http.MethodPost
	var body io.Reader
	if r.Kind == kindSpec {
		method = http.MethodGet
	} else {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+kindRoutes[r.Kind], body)
	if err != nil {
		return 0, nil, err.Error()
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err.Error()
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, b, "reading body: " + err.Error()
	}
	return resp.StatusCode, b, ""
}
