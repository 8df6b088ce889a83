package sim_test

// Bare machines loaded with one image share its code and the blocks and
// unmapped traces translated from it (barecode.go): a later machine
// adopts what an earlier one published. These tests hold adoption to
// the architecture: a machine that adopted is indistinguishable from a
// fresh one, a code write or a restore moves only the machine it hits
// to a code of its own, and the published translations die with their
// image.

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/sim"
)

// shortPrograms are the corpus programs under 30K instructions, where
// translation and formation are a large share of a run.
var shortPrograms = []string{"calc", "strings", "tokenizer", "formatter", "puzzle0", "puzzle1"}

// runImage runs im to halt on a new machine of engine eng, hashing its
// observer events.
func runImage(t *testing.T, im *isa.Image, eng sim.Engine) (*sim.Machine, machineImage) {
	t.Helper()
	eh := newEventHasher()
	m, err := sim.New(sim.WithEngine(eng), sim.WithHooks(eh.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	return m, capture(t, m, eh)
}

// settledBlocksShare bounds the share of a program's instructions a
// machine loaded after its image settled retires on the blocks tier:
// machines on an image pool the trace tier's formation heat there
// (cpu.GoldenCode), so code each run executes only a few times is still
// traced once per image and adopted by every later machine. Formatter
// keeps more: every run refuses short paths at entries whose recording
// the run's own control flow cuts.
const settledBlocksShare = 0.01

// formatterBlocksShare is formatter's bound (see settledBlocksShare).
const formatterBlocksShare = 0.10

// settledShortPaths bounds the recordings a machine on a settled image
// sees come up short. A short path poisons nothing, so its entry
// re-earns the image's threshold: formatter's machines read 23, the
// others at most 1. Without the reset at each recording's start an
// entry that comes up short would re-record at every miss (formatter:
// 185).
const settledShortPaths = 25

// TestAdoptingMachinesMatchFirst runs each short program on the
// reference engine, then on twenty trace-tier machines in turn over the
// same image. The reference engine translates nothing, so the first
// trace-tier machine publishes, and machine 2 and the later ones adopt
// from it. All must reproduce the reference engine's output,
// statistics, memory and event hash. The last machine runs on a settled
// image: at most settledBlocksShare of its instructions retire on the
// blocks tier, and at most settledShortPaths of its recordings come up
// short. TestPublishedTraceOpsBounded (package cpu) bounds what the
// image's published traces hold.
func TestAdoptingMachinesMatchFirst(t *testing.T) {
	const machines = 20
	for _, name := range shortPrograms {
		t.Run(name, func(t *testing.T) {
			im := compileCorpus(t, name, false)
			_, want := runImage(t, im, sim.Reference)
			var first, tr cpu.TranslationStats
			for i := range machines {
				m, got := runImage(t, im, sim.Traces)
				diffImages(t, want, got)
				tr = *m.Trans()
				if i == 0 {
					first = tr
					if tr.BlockAdoptions != 0 || tr.TraceAdoptions != 0 || tr.TraceCompiled == 0 {
						t.Fatalf("first machine: %d blocks and %d traces adopted, %d compiled; want none adopted, some compiled",
							tr.BlockAdoptions, tr.TraceAdoptions, tr.TraceCompiled)
					}
					continue
				}
				if tr.TraceAdoptions == 0 || tr.BlockTranslations >= first.BlockTranslations {
					t.Errorf("machine %d adopted %d traces and translated %d blocks (first machine: %d)",
						i+1, tr.TraceAdoptions, tr.BlockTranslations, first.BlockTranslations)
				}
				adopted := 0
				for _, s := range m.CPU().TraceSites() {
					if s.Adopted {
						adopted++
					}
				}
				if uint64(adopted) != tr.TraceAdoptions {
					t.Errorf("machine %d: %d sites marked adopted, %d traces adopted", i+1, adopted, tr.TraceAdoptions)
				}
			}
			blocks := tr.TierInstrs[cpu.TierBlocks]
			share := float64(blocks) / float64(want.stats.Instructions)
			t.Logf("machine %d: %d of %d instructions on the blocks tier (%.2f%%)",
				machines, blocks, want.stats.Instructions, 100*share)
			bound := settledBlocksShare
			if name == "formatter" {
				bound = formatterBlocksShare
			}
			if share > bound {
				t.Errorf("machine %d retired %.2f%% of its instructions on the blocks tier, want at most %.0f%%",
					machines, 100*share, 100*bound)
			}
			if n := tr.TraceFormRefusals[cpu.RefusalShortPath]; n > settledShortPaths {
				t.Errorf("machine %d refused %d short paths, want at most %d", machines, n, settledShortPaths)
			}
		})
	}
}

// TestConcurrentMachinesShareOneImage runs each short program on eight
// goroutines at once, four machines each, over one image, so the first
// load, publication, adoption and the image's pooled heat (its counts,
// resets and poisonings) race: under -race any unsynchronized access to
// the published table shows, and every machine must still match the
// reference engine event for event.
func TestConcurrentMachinesShareOneImage(t *testing.T) {
	for _, name := range shortPrograms {
		t.Run(name, func(t *testing.T) {
			im := compileCorpus(t, name, false)
			_, want := runImage(t, compileCorpus(t, name, false), sim.Reference)
			var wg sync.WaitGroup
			got := make([][]machineImage, 8)
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 4 {
						eh := newEventHasher()
						m, err := sim.New(sim.WithHooks(eh.hooks(false)))
						if err == nil {
							err = m.Load(im)
						}
						if err == nil {
							_, err = m.Run(100_000_000)
						}
						if err == nil && !m.Halted() {
							err = errors.New("machine did not halt")
						}
						if err != nil {
							t.Error(err)
							return
						}
						got[g] = append(got[g], capture(t, m, eh))
					}
				}()
			}
			wg.Wait()
			for _, imgs := range got {
				for _, img := range imgs {
					diffImages(t, want, img)
				}
			}
		})
	}
}

// adoptedSites returns the adopted trace sites of m by entry PC, with
// their history cleared: what was published, not how it ran.
func adoptedSites(m *sim.Machine) map[uint32]cpu.TraceSite {
	out := map[uint32]cpu.TraceSite{}
	for _, s := range m.CPU().TraceSites() {
		if s.Adopted {
			s.Hits, s.Instrs, s.Deopts = 0, 0, [cpu.NumDeoptReasons]uint64{}
			out[s.EntryPC] = s
		}
	}
	return out
}

// runUntilAdopted loads im on a new trace-tier machine and runs it
// until it has adopted a trace.
func runUntilAdopted(t *testing.T, im *isa.Image, eh *eventHasher) *sim.Machine {
	t.Helper()
	m, err := sim.New(sim.WithHooks(eh.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	for m.Trans().TraceAdoptions == 0 {
		if _, halted := m.RunSteps(500); halted {
			t.Fatal("machine halted before it adopted a trace")
		}
	}
	return m
}

// TestCodeWriteMovesOnlyItsMachineToACodeOfItsOwn patches one word of
// an adopted trace on one machine while another machine shares the
// image. The writer drops its own translations of the word, moves to a
// code of its own and adopts nothing more; the other machine keeps
// every trace it adopted, and it and a machine loaded after the write
// adopt traces identical to what was published before it. All of them
// print the publisher's output.
func TestCodeWriteMovesOnlyItsMachineToACodeOfItsOwn(t *testing.T) {
	im := compileCorpus(t, "tokenizer", false)
	_, want := runImage(t, im, sim.Traces) // the first load publishes

	ehOther, ehWriter := newEventHasher(), newEventHasher()
	other := runUntilAdopted(t, im, ehOther)
	published := adoptedSites(other)

	// The writer rewrites the entry word of an adopted trace with the
	// word already there: a code write that changes no behavior, so its
	// run must still match.
	w := runUntilAdopted(t, im, ehWriter)
	var pa uint32
	for pa = range adoptedSites(w) {
		break
	}
	wc := w.CPU()
	wc.WriteCode(pa, []isa.Instr{wc.IMem.At(pa)})
	if wc.Trans.TraceInvalidations == 0 {
		t.Error("the code write dropped none of the writer's traces")
	}
	adoptions := wc.Trans.BlockAdoptions + wc.Trans.TraceAdoptions
	if _, err := w.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	diffImages(t, want, capture(t, w, ehWriter))
	if n := wc.Trans.BlockAdoptions + wc.Trans.TraceAdoptions; n != adoptions {
		t.Errorf("the writer adopted %d more translations after its code write", n-adoptions)
	}

	if _, err := other.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	diffImages(t, want, capture(t, other, ehOther))
	if n := other.Trans().TraceInvalidations; n != 0 {
		t.Errorf("the other machine dropped %d traces", n)
	}
	kept := adoptedSites(other)
	for pc, s := range published {
		if kept[pc] != s {
			t.Errorf("other machine's trace at %d is %+v after the write, want %+v", pc, kept[pc], s)
		}
	}

	after, got := runImage(t, im, sim.Traces)
	diffImages(t, want, got)
	sites := adoptedSites(after)
	if len(sites) == 0 {
		t.Error("the machine loaded after the write adopted no trace")
	}
	for pc, s := range sites {
		if p, ok := kept[pc]; ok && p != s {
			t.Errorf("trace at %d adopted after the write as %+v, before it as %+v", pc, s, p)
		}
	}
}

// TestRestoreMovesToACodeOfItsOwn restores a capture of the same
// program over a machine on its image's golden code: the restored
// machine moves to the golden code of the capture, so it must translate
// and form its own traces, adopting nothing, and still finish exactly
// like the reference engine.
func TestRestoreMovesToACodeOfItsOwn(t *testing.T) {
	im := compileCorpus(t, "calc", false)
	_, want := runImage(t, im, sim.Reference)
	runImage(t, im, sim.Traces) // publishes on the image's code

	src, err := sim.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Load(im); err != nil {
		t.Fatal(err)
	}
	src.RunSteps(1000)
	snap, err := src.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	eh := newEventHasher()
	m, err := sim.New(sim.WithHooks(eh.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	m.RunSteps(1000)
	if m.Trans().TraceAdoptions == 0 {
		t.Fatal("the machine on the image's code adopted no trace; the test is vacuous")
	}
	if err := sim.RestoreOver(m, snap); err != nil {
		t.Fatal(err)
	}
	// The event hash restarts at the capture point, so it is compared
	// against a reference run resumed from the same capture.
	ehRef := newEventHasher()
	ref, err := sim.New(sim.WithEngine(sim.Reference), sim.WithHooks(ehRef.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RestoreOver(ref, snap); err != nil {
		t.Fatal(err)
	}
	*eh = *newEventHasher()
	for _, r := range []*sim.Machine{m, ref} {
		if _, err := r.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
	}
	diffImages(t, capture(t, ref, ehRef), capture(t, m, eh))
	if got := m.Stats().Instructions; got != want.stats.Instructions {
		t.Errorf("restored machine retired %d instructions in all, want %d", got, want.stats.Instructions)
	}
	if tr := m.Trans(); tr.BlockAdoptions != 0 || tr.TraceAdoptions != 0 || tr.TraceCompiled == 0 {
		t.Errorf("restored machine adopted %d blocks and %d traces and compiled %d; want a code of its own",
			tr.BlockAdoptions, tr.TraceAdoptions, tr.TraceCompiled)
	}
}

// TestPublishedCodeDiesWithItsImage loads images that nothing keeps,
// twice each, publishing their translations: once the images are
// collected, their golden code leaves the table.
func TestPublishedCodeDiesWithItsImage(t *testing.T) {
	var images []weak.Pointer[isa.Image]
	for range 4 {
		im := compileCorpus(t, "calc", false)
		images = append(images, weak.Make(im))
		for range 2 {
			runImage(t, im, sim.Traces)
		}
		if !sim.BareCodePublished(images[len(images)-1]) {
			t.Fatal("a loaded image has no golden code")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, wp := range images {
		for sim.BareCodePublished(wp) {
			if time.Now().After(deadline) {
				t.Fatal("a golden code outlives its image")
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
}
