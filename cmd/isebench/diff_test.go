package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBenchFile writes a one-suite BENCH file measured on cpus CPUs.
func writeBenchFile(t *testing.T, dir, name string, cpus int) string {
	t.Helper()
	bf := benchFile{Schema: 1, Rev: name, CPUs: cpus, Benches: []benchRecord{
		{Name: "Figure4/par", NsPerOp: 1000, AllocsPerOp: 100},
	}}
	b, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// diffOutput runs runBenchDiff and returns what it printed.
func diffOutput(t *testing.T, basePath, freshPath string) string {
	t.Helper()
	var out strings.Builder
	if err := runBenchDiff(&out, basePath, freshPath, 1.0); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestBenchDiffParityNoteFollowsFreshCPUs pins the /par parity note to the
// fresh run's CPU count: a 1-CPU baseline against a multi-CPU fresh run
// gets no note, a 1-CPU fresh run always does.
func TestBenchDiffParityNoteFollowsFreshCPUs(t *testing.T) {
	const note = "[1 cpu: parity with /seq expected]"
	for _, tc := range []struct {
		baseCPUs, freshCPUs int
		want                bool
	}{
		{1, 4, false},
		{4, 1, true},
		{1, 1, true},
		{4, 4, false},
	} {
		dir := t.TempDir()
		base := writeBenchFile(t, dir, "base", tc.baseCPUs)
		fresh := writeBenchFile(t, dir, "fresh", tc.freshCPUs)
		if got := strings.Contains(diffOutput(t, base, fresh), note); got != tc.want {
			t.Errorf("base %d cpus, fresh %d cpus: parity note printed = %t, want %t", tc.baseCPUs, tc.freshCPUs, got, tc.want)
		}
	}
}
