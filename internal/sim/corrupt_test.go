package sim_test

// Restore takes bytes from the network; malformed input of every kind
// must fail with ErrSnapshotFormat and never panic.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"mips/internal/sim"
)

// validSnapshot builds one real snapshot to mutate.
func validSnapshot(t *testing.T) []byte {
	t.Helper()
	im := compileCorpus(t, "fib", false)
	m, err := sim.New(sim.WithEngine(sim.FastPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	m.RunSteps(500)
	snap, err := m.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func mustFormatError(t *testing.T, name string, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Restore panicked: %v", name, r)
		}
	}()
	_, err := sim.Restore(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: Restore accepted malformed input", name)
	}
	if !errors.Is(err, sim.ErrSnapshotFormat) {
		t.Errorf("%s: error %v does not wrap ErrSnapshotFormat", name, err)
	}
}

func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	snap := validSnapshot(t)

	t.Run("empty", func(t *testing.T) { mustFormatError(t, "empty", nil) })
	t.Run("short-header", func(t *testing.T) { mustFormatError(t, "short-header", snap[:10]) })
	t.Run("truncated-payload", func(t *testing.T) {
		mustFormatError(t, "truncated-payload", snap[:len(snap)/2])
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[0] ^= 0xFF
		mustFormatError(t, "bad-magic", bad)
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint32(bad[8:12], sim.SnapshotVersion+1)
		mustFormatError(t, "bad-version", bad)
	})
	t.Run("length-bomb", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint64(bad[12:20], 1<<40)
		mustFormatError(t, "length-bomb", bad)
	})
	t.Run("bad-crc", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[20] ^= 0xFF
		mustFormatError(t, "bad-crc", bad)
	})
	t.Run("payload-flip", func(t *testing.T) {
		// Corrupt the gob but keep the CRC consistent, so the gob decoder
		// itself has to reject it.
		bad := append([]byte(nil), snap...)
		bad[24] ^= 0xFF
		binary.LittleEndian.PutUint32(bad[20:24], crc32.ChecksumIEEE(bad[24:]))
		mustFormatError(t, "payload-flip", bad)
	})
	t.Run("garbage-payload", func(t *testing.T) {
		garbage := bytes.Repeat([]byte{0xA5}, 64)
		bad := make([]byte, 24+len(garbage))
		copy(bad, snap[:8]) // keep magic
		binary.LittleEndian.PutUint32(bad[8:12], sim.SnapshotVersion)
		binary.LittleEndian.PutUint64(bad[12:20], uint64(len(garbage)))
		binary.LittleEndian.PutUint32(bad[20:24], crc32.ChecksumIEEE(garbage))
		copy(bad[24:], garbage)
		mustFormatError(t, "garbage-payload", bad)
	})
}

// FuzzRestore hammers Restore with arbitrary bytes (seeded with the
// golden version-6 snapshot and its truncations); it must return an
// error or a machine, never panic.
func FuzzRestore(f *testing.F) {
	snap, err := os.ReadFile(fixturePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:24])
	f.Add(snap[:len(snap)-3])
	f.Add([]byte("MIPSSNAP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := sim.Restore(bytes.NewReader(data))
		if err == nil {
			// Valid snapshots must restore into a runnable machine.
			r.RunSteps(10)
		}
	})
}
