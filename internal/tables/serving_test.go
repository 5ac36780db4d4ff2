package tables

import (
	"strings"
	"testing"
)

// TestServingStudy: every default family layout serves the paced trace to
// completion with sane tail latencies.
func TestServingStudy(t *testing.T) {
	points, err := ServingStudy(DefaultFamilyLayouts())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(DefaultFamilyLayouts()) {
		t.Fatalf("want %d rows, got %d", len(DefaultFamilyLayouts()), len(points))
	}
	for _, p := range points {
		if p.Saturated <= 0 || p.Throughput <= 0 {
			t.Fatalf("%s: non-positive throughput %+v", p.Layout, p)
		}
		if !(p.P50 > 0 && p.P50 <= p.P95 && p.P95 <= p.P99) {
			t.Fatalf("%s: percentiles not ordered: p50 %.6g p95 %.6g p99 %.6g", p.Layout, p.P50, p.P95, p.P99)
		}
		if p.Requests != 64 {
			t.Fatalf("%s: paced trace carried %d requests, want 64", p.Layout, p.Requests)
		}
	}
	out := FormatServing(points)
	for _, want := range []string{"p50(s)", "thru(r/s)", "megatron", "tesseract"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatServing missing %q:\n%s", want, out)
		}
	}
}

// TestServingPlannerStudyUsesExactRanks: the serving planner study spends
// the exact 64-rank budget and prints the serving winner beside the training
// one. Its prices are held to the batcher by
// serve.TestEveryServingPredictionEqualsItsMeasurement.
func TestServingPlannerStudyUsesExactRanks(t *testing.T) {
	pt, err := ServingPlannerStudy(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Best().Grid.Ranks != 64 {
		t.Fatalf("serving best %s does not use the exact 64-rank budget", pt.Best())
	}
	out := FormatServingPlanner(pt)
	for _, want := range []string{"serving best", "training best", "min-lat(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatServingPlanner missing %q:\n%s", want, out)
		}
	}
}
