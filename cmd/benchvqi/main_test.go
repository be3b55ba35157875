package main

import (
	"strings"
	"testing"
	"text/tabwriter"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "T1", "P1", "R1", "K1", "S1", "O1", "A1", "D1", "M1"}
	have := map[string]bool{}
	for _, e := range experiments {
		if have[e.id] {
			t.Fatalf("duplicate experiment id %s", e.id)
		}
		have[e.id] = true
		if e.title == "" || e.run == nil {
			t.Fatalf("experiment %s incomplete", e.id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if len(experiments) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(experiments), len(want))
	}
}

func TestExperimentOrder(t *testing.T) {
	if experimentOrder("E2") >= experimentOrder("E10") {
		t.Fatal("numeric ordering broken (E2 must precede E10)")
	}
	if experimentOrder("T1") <= experimentOrder("E15") {
		t.Fatal("T1 must come last")
	}
}

func TestT1Runs(t *testing.T) {
	// T1 is static and must render the whole tutorial inventory.
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	runT1(runConfig{}, w)
	w.Flush()
	out := sb.String()
	for _, topic := range []string{"Introduction", "maintenance", "Future"} {
		if !strings.Contains(out, topic) {
			t.Fatalf("T1 output missing %q:\n%s", topic, out)
		}
	}
}
