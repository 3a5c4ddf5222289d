package isegen_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// maxProbesPerToggle pins the amortized cost of the K-L candidate-gain
// cache on the Figure 4 suite: kl_probes counts digest rebuilds, so the
// probes/toggles ratio is the average number of O(deg+cone) recomputes
// one committed toggle causes. The cache lands at ~3.1 on this suite
// (sequential, default config); before it, every selectBestGain step
// re-probed each unmarked node for ~37. The bound leaves headroom for
// kernel-set drift but fails long before a broken invalidation rule
// degenerates back to the uncached regime.
const maxProbesPerToggle = 5.0

// TestFigure4ProbeToggleRatio is the CI smoke for the probe-digest
// cache's effectiveness. It fails when kl_probes/kl_toggles on the
// Figure 4 kernels regresses above maxProbesPerToggle — catching an
// invalidation rule that starts over-dirtying (correct but slow), which
// no bit-identity test can see.
func TestFigure4ProbeToggleRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 4 suite")
	}
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	suites := experiments.Suites()
	i := slices.IndexFunc(suites, func(s experiments.Suite) bool { return s.Name == "figure4/isegen/seq" })
	if i < 0 {
		t.Fatal("experiments.Suites has no figure4/isegen/seq")
	}
	if err := suites[i].Run(ctx); err != nil {
		t.Fatal(err)
	}
	counters := rec.Counters().Map()
	probes, toggles := counters["kl_probes"], counters["kl_toggles"]
	if toggles == 0 {
		t.Fatal("suite recorded no kl_toggles")
	}
	ratio := float64(probes) / float64(toggles)
	t.Logf("figure4: %d probes / %d toggles = %.2f per toggle (limit %.1f)", probes, toggles, ratio, maxProbesPerToggle)
	if ratio > maxProbesPerToggle {
		t.Fatalf("kl_probes/kl_toggles = %.2f exceeds the pinned %.1f: the gain cache is over-invalidating", ratio, maxProbesPerToggle)
	}
}
