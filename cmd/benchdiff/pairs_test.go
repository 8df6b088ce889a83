package main

import (
	"os"
	"strings"
	"testing"
)

// TestRenderCodeWriterPairs renders the committed pairs of the code
// writer change and requires the figures EXPERIMENTS.md tabulated from
// them by hand, with the verdict the rule gives each.
func TestRenderCodeWriterPairs(t *testing.T) {
	metrics, err := readMetrics("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("../../experiments/code-writer-pairs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, err := readRuns(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 80 {
		t.Fatalf("read %d runs, want 80", len(runs))
	}
	var out strings.Builder
	renderPairs(&out, runs, metrics)
	for _, want := range []string{
		"| paper | `op_ms_min` | 126.9 [122.0, 136.7] | 133.5 [118.1, 141.5] | +5.2% | 6/10 | 11.6% | within bound |",
		"| corpus-short | `op_ms_min` | 0.2267 [0.2235, 0.2301] | 0.2046 [0.2032, 0.2113] | −9.7% | 9/10 | 2.9% | gain |",
		"| corpus-long | `op_ms_min` | 1.555 [1.510, 1.628] | 1.444 [1.409, 1.553] | −7.1% | 8/10 | 7.6% | within bound |",
		"| mipsd | `rss_mb` | 21.29 [21.22, 21.39] | 21.17 [21.15, 21.24] | −0.6% | 8/10 | 0.8% | within bound |",
		"corpus-short: failed operations: parent 0 of 183987, change 0 of 198841",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("rendered table lacks\n%s\ngot:\n%s", want, out.String())
		}
	}
}

// TestPairsVerdict pins the verdict rule on the edges of its cases.
func TestPairsVerdict(t *testing.T) {
	lower := metric{Name: "op_ms_min", Better: "lower", Bound: 0.25}
	higher := metric{Name: "ops", Better: "higher", Bound: 0.25}
	for _, c := range []struct {
		m             metric
		spread, delta float64
		wins          int
		want          string
	}{
		{lower, 0.30, -0.50, 10, "unresolved"},
		{lower, 0.05, 0.26, 0, "worse than bound"},
		{lower, 0.05, -0.06, 9, "gain"},
		{lower, 0.05, -0.06, 8, "within bound"},
		{lower, 0.05, -0.04, 10, "within bound"},
		{higher, 0.05, 0.06, 9, "gain"},
		{higher, 0.05, -0.26, 0, "worse than bound"},
	} {
		if got := verdict(c.m, c.spread, c.delta, c.wins, 10); got != c.want {
			t.Errorf("verdict(%s, spread %.2f, Δ %+.2f, %d/10) = %q, want %q",
				c.m.Better, c.spread, c.delta, c.wins, got, c.want)
		}
	}
}
