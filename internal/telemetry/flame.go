package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"

	"mips/internal/telemetry/fleet"
)

// The /profile endpoints render the cycle-attribution profiler live.
// /profile/flame emits the folded-stack text Brendan Gregg's
// flamegraph.pl (and every compatible viewer, e.g. speedscope) eats
// directly: one `frame;frame value` line per stack. Our profile is a
// flat per-symbol attribution, so each stack is two frames deep — the
// address space (user or kernel) and the symbol — weighted by exact
// cycles, not samples.

func (s *Server) handleFlame(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("scope") == "fleet" {
		s.mu.Lock()
		fleet := s.fleetFolded
		s.mu.Unlock()
		if fleet == nil {
			http.Error(w, "fleet flame not configured (run mipsd)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fleet(w)
		return
	}
	p := s.cfg.Profiler
	if p == nil {
		http.Error(w, "profiler not attached (run with -prof)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fleet.WriteFolded(w, p.Folded())
}

// TopEntry is one /profile/top row, a JSON rendering of
// trace.SymbolProfile.
type TopEntry struct {
	Symbol string `json:"symbol"`
	Kernel bool   `json:"kernel"`
	Cycles uint64 `json:"cycles"`
	Instrs uint64 `json:"instrs"`
	Nops   uint64 `json:"nops"`
	Stalls uint64 `json:"stalls"`
	Excs   uint64 `json:"excs"`
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	p := s.cfg.Profiler
	if p == nil {
		http.Error(w, "profiler not attached (run with -prof)", http.StatusNotFound)
		return
	}
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	rows := p.Flat()
	if n > len(rows) {
		n = len(rows)
	}
	out := struct {
		TotalCycles uint64     `json:"total_cycles"`
		Symbols     []TopEntry `json:"symbols"`
	}{TotalCycles: p.TotalCycles(), Symbols: make([]TopEntry, 0, n)}
	for _, row := range rows[:n] {
		out.Symbols = append(out.Symbols, TopEntry{
			Symbol: row.Name, Kernel: row.Kernel, Cycles: row.Cycles,
			Instrs: row.Instrs, Nops: row.Nops, Stalls: row.Stalls, Excs: row.Excs,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
