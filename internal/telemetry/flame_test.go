package telemetry

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http/httptest"
	"strings"
	"testing"

	"mips/internal/telemetry/fleet"
)

// TestFoldedRoundTrip pins the folded flamegraph format: rendering the
// profile of a real run and parsing it back recovers every stack's
// exact cycle weight, and the weights sum to the run's total cycles.
func TestFoldedRoundTrip(t *testing.T) {
	_, _, profiler, res := runCorpus(t, "calc")
	var buf bytes.Buffer
	if err := fleet.WriteFolded(&buf, profiler.Folded()); err != nil {
		t.Fatal(err)
	}
	parsed, err := fleet.ParseFolded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) == 0 {
		t.Fatal("empty folded profile")
	}
	var sum uint64
	for stack, n := range parsed {
		if !strings.HasPrefix(stack, "user;") && !strings.HasPrefix(stack, "kernel;") {
			t.Errorf("stack %q not rooted in an address space", stack)
		}
		sum += n
	}
	if sum != res.Stats.Cycles {
		t.Errorf("folded weights sum to %d, Stats.Cycles = %d", sum, res.Stats.Cycles)
	}
	if want := profiler.Folded(); !maps.Equal(parsed, want) {
		t.Errorf("parsed %v, want %v", parsed, want)
	}
	// Cross-check every symbol against the flat profile.
	for _, row := range profiler.Flat() {
		space := "user"
		if row.Kernel {
			space = "kernel"
		}
		if got := parsed[space+";"+row.Name]; got != row.Cycles {
			t.Errorf("symbol %s: folded %d, flat %d", row.Name, got, row.Cycles)
		}
	}
}

func TestParseFoldedRejectsGarbage(t *testing.T) {
	if _, err := fleet.ParseFolded(strings.NewReader("nocount\n")); err == nil {
		t.Error("line without count accepted")
	}
	if _, err := fleet.ParseFolded(strings.NewReader("a;b notanumber\n")); err == nil {
		t.Error("non-numeric count accepted")
	}
}

func TestProfileTopEndpoint(t *testing.T) {
	_, _, profiler, res := runCorpus(t, "calc")
	srv := New(Config{Program: "test", Profiler: profiler})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out struct {
		TotalCycles uint64     `json:"total_cycles"`
		Symbols     []TopEntry `json:"symbols"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/profile/top?n=3")), &out); err != nil {
		t.Fatal(err)
	}
	if out.TotalCycles != res.Stats.Cycles {
		t.Errorf("total_cycles = %d, want %d", out.TotalCycles, res.Stats.Cycles)
	}
	if len(out.Symbols) == 0 || len(out.Symbols) > 3 {
		t.Fatalf("got %d symbols, want 1..3", len(out.Symbols))
	}
	// Flat order: descending cycles.
	for i := 1; i < len(out.Symbols); i++ {
		if out.Symbols[i].Cycles > out.Symbols[i-1].Cycles {
			t.Error("top symbols not sorted by cycles")
		}
	}
}
