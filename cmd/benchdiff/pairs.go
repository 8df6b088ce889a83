package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// metric is one end-to-end metric of BENCHMARK.json: its name, which
// direction is better, and the bound a median may move against it, as
// a fraction of the parent's median.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readMetrics reads the end-to-end metrics of a BENCHMARK.json.
func readMetrics(name string) ([]metric, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return spec.EndToEnd, nil
}

// run is one line of scripts/pairs.sh output. Its metric values stay
// keyed by name, so the metrics BENCHMARK.json lists select them.
type run struct {
	pair           int
	side, workload string
	values         map[string]float64
}

// sideIndex is 0 for the parent's runs and 1 for the change's.
func (r run) sideIndex() int {
	if r.side == "change" {
		return 1
	}
	return 0
}

// readRuns reads scripts/pairs.sh JSONL.
func readRuns(r io.Reader) ([]run, error) {
	var runs []run
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var raw map[string]any
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		rn := run{values: map[string]float64{}}
		for k, v := range raw {
			switch k {
			case "side":
				rn.side, _ = v.(string)
			case "workload":
				rn.workload, _ = v.(string)
			default:
				if f, ok := v.(float64); ok {
					rn.values[k] = f
				}
			}
		}
		rn.pair = int(rn.values["pair"])
		if rn.side != "parent" && rn.side != "change" {
			return nil, fmt.Errorf("line %d: side %q is neither parent nor change", n, rn.side)
		}
		runs = append(runs, rn)
	}
	return runs, sc.Err()
}

// quartiles returns the lower quartile, median and upper quartile of
// v by linear interpolation between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// verdict judges one metric of one workload. A metric whose parent
// spread (IQR over median) exceeds its bound cannot be judged against
// the bound: unresolved. A gain needs the change better in at least
// nine pairs of ten and a median gap larger than the parent's IQR.
func verdict(m metric, spread, delta float64, wins, pairs int) string {
	if m.Better != "lower" {
		delta = -delta
	}
	switch {
	case spread > m.Bound:
		return "unresolved"
	case delta > m.Bound:
		return "worse than bound"
	case delta < -spread && wins*10 >= pairs*9:
		return "gain"
	}
	return "within bound"
}

// renderPairs writes, per workload and end-to-end metric, each side's
// median and quartiles, the change in median, the pairs the change won,
// the parent's spread and the verdict; then each workload's failed
// operations per side.
func renderPairs(w io.Writer, runs []run, metrics []metric) {
	var workloads []string
	for _, r := range runs {
		if !slices.Contains(workloads, r.workload) {
			workloads = append(workloads, r.workload)
		}
	}
	fmt.Fprintln(w, "| workload | metric | parent | change | Δ median | wins | spread | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, wl := range workloads {
		for _, m := range metrics {
			type pair struct {
				v    [2]float64
				have [2]bool
			}
			byPair := map[int]pair{}
			var sides [2][]float64
			for _, r := range runs {
				v, ok := r.values[m.Name]
				if r.workload != wl || !ok {
					continue
				}
				s := r.sideIndex()
				sides[s] = append(sides[s], v)
				p := byPair[r.pair]
				p.v[s], p.have[s] = v, true
				byPair[r.pair] = p
			}
			if len(sides[0]) == 0 || len(sides[1]) == 0 {
				continue
			}
			wins, pairs := 0, 0
			for _, p := range byPair {
				if !p.have[0] || !p.have[1] {
					continue
				}
				pairs++
				d := p.v[1] - p.v[0]
				if m.Better != "lower" {
					d = -d
				}
				if d < 0 {
					wins++
				}
			}
			p1, pm, p3 := quartiles(sides[0])
			c1, cm, c3 := quartiles(sides[1])
			spread, delta := (p3-p1)/pm, (cm-pm)/pm
			fmt.Fprintf(w, "| %s | `%s` | %s [%s, %s] | %s [%s, %s] | %s | %d/%d | %.1f%% | %s |\n",
				wl, m.Name, num(pm), num(p1), num(p3), num(cm), num(c1), num(c3),
				pct(delta), wins, pairs, 100*spread, verdict(m, spread, delta, wins, pairs))
		}
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		var att, fail [2]float64
		for _, r := range runs {
			if r.workload == wl {
				att[r.sideIndex()] += r.values["attempted"]
				fail[r.sideIndex()] += r.values["failed"]
			}
		}
		fmt.Fprintf(w, "%s: failed operations: parent %.0f of %.0f, change %.0f of %.0f\n",
			wl, fail[0], att[0], fail[1], att[1])
	}
}

// num prints a value to four significant digits.
func num(v float64) string {
	d := 3
	if v != 0 {
		d = 3 - int(math.Floor(math.Log10(math.Abs(v))))
	}
	return fmt.Sprintf("%.*f", max(d, 0), v)
}

// pct prints a signed fraction as a percentage with a true minus sign.
func pct(f float64) string {
	s := fmt.Sprintf("%+.1f%%", 100*f)
	return strings.Replace(s, "-", "−", 1)
}

// pairsMain renders a scripts/pairs.sh file against the metrics of
// BENCHMARK.json in the working directory (the repository root, where
// scripts run benchdiff).
func pairsMain(file string) {
	metrics, err := readMetrics("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(file)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runs, err := readRuns(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", file, err))
	}
	renderPairs(os.Stdout, runs, metrics)
}
