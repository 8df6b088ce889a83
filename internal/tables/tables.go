// Package tables regenerates every table and figure of the paper's
// evaluation. Each experiment returns a Table with measured values side
// by side with the paper's published numbers; EXPERIMENTS.md records the
// comparison. Absolute values differ (the corpus is a reconstruction —
// see DESIGN.md), but each harness asserts the paper's qualitative
// claim.
package tables

import (
	"fmt"
	"strings"

	"mips/internal/sim"
)

// Table is one rendered experiment.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Experiment names one regenerable result.
type Experiment struct {
	Name string
	run  func(*pass) (*Table, error)
}

// Run regenerates the experiment alone, on a pass of its own.
func (e Experiment) Run() (*Table, error) { return e.run(newPass(sim.Default)) }

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", table1},
		{"table2", table2},
		{"table3", table3},
		{"table4", table4},
		{"table5", table5},
		{"table6", table6},
		{"table7", table7},
		{"table8", table8},
		{"table9", table9},
		{"table10", table10},
		{"table11", table11},
		{"figure1", figure1},
		{"figure2", figure2},
		{"figure3", figure3},
		{"figure4", figure4},
		{"freecycles", freeCycles},
		{"ctxswitch", contextSwitch},
		{"ablation-interlocks", ablationInterlocks},
		{"ablation-delayschemes", ablationDelaySchemes},
		{"ablation-byteoverhead", ablationByteOverhead},
		{"ablation-boolcross", ablationBoolCross},
	}
}

func pct(f float64) string     { return fmt.Sprintf("%.1f%%", 100*f) }
func f2(f float64) string      { return fmt.Sprintf("%.2f", f) }
func num(n interface{}) string { return fmt.Sprint(n) }
