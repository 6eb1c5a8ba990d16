package fbtrace

// testdata/frozen_stream.json pins the generator bit for bit: a SHA-256 over
// every streamed coflow (ID, name, arrival bits, and each flow's ID,
// endpoints and size bits) for a few configurations, plus the SHA-256 of the
// CoflowSim text trace.Write emits for the benchmark's ×1 and ×100 traces.
// It was recorded before the generator, coflow.New or trace.Write were
// optimised and is not meant to be re-recorded: a different digest means a
// coflow or a byte moved.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"testing"

	"ccf/internal/trace"
)

func frozenStreamConfigs() map[string]Config {
	replay := Config{Machines: 64, Coflows: 12, MeanInterarrivalSec: 1, Seed: 42}
	dense := replay
	dense.Density = 100
	return map[string]Config{
		"replay/x1":   replay,
		"replay/x100": dense,
		"m16/seed7":   {Machines: 16, Coflows: 300, MeanInterarrivalSec: 0.5, Seed: 7},
		"mix":         {Machines: 24, Coflows: 200, Seed: 3, Mix: Mix{SN: 0.1, LN: 0.2, SW: 0.3, LW: 0.4}},
	}
}

// streamDigest hashes the whole stream cfg yields.
func streamDigest(t *testing.T, cfg Config) string {
	st, err := Stream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for {
		c, ok := st.Next()
		if !ok {
			break
		}
		word(uint64(c.ID))
		word(uint64(len(c.Name)))
		h.Write([]byte(c.Name))
		word(math.Float64bits(c.Arrival))
		word(uint64(len(c.Flows)))
		for _, f := range c.Flows {
			word(uint64(f.ID))
			word(uint64(f.Src))
			word(uint64(f.Dst))
			word(math.Float64bits(f.Size))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFrozenStream(t *testing.T) {
	got := map[string]string{}
	for name, cfg := range frozenStreamConfigs() {
		got[name] = streamDigest(t, cfg)
		if name != "replay/x1" && name != "replay/x100" {
			continue
		}
		cfs, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, ToTrace(cfg.Machines, cfs)); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[name+"/trace"] = hex.EncodeToString(sum[:])
	}

	raw, err := os.ReadFile("testdata/frozen_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, %d recorded", len(got), len(want))
	}
	for name, dg := range got {
		if want[name] != dg {
			t.Errorf("%s: digest %s, recorded %s", name, dg, want[name])
		}
	}
	if t.Failed() {
		js, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("this build computes:\n%s", js)
	}
}
