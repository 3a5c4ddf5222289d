package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestSuitesCoverBaseline pins the suite table against the gate without
// running a suite: every name the checked-in baseline gates must exist in
// experiments.Suites, the names must be unique, and each must sit under
// the figure4/ or figure6/ prefix that BenchmarkFigure4 and
// BenchmarkFigure6 iterate. A renamed suite then fails here instead of
// only in the CI bench-diff step.
func TestSuitesCoverBaseline(t *testing.T) {
	names := map[string]bool{}
	for _, s := range experiments.Suites() {
		if names[s.Name] {
			t.Errorf("suite %q declared twice", s.Name)
		}
		names[s.Name] = true
		if !strings.HasPrefix(s.Name, "figure4/") && !strings.HasPrefix(s.Name, "figure6/") {
			t.Errorf("suite %q is under neither figure4/ nor figure6/, so no go test benchmark runs it", s.Name)
		}
	}
	base, err := loadBenchFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benches) == 0 {
		t.Fatal("BENCH_baseline.json gates no suite")
	}
	for _, rec := range base.Benches {
		if !names[rec.Name] {
			t.Errorf("BENCH_baseline.json gates %q, which experiments.Suites does not declare", rec.Name)
		}
	}
}
