package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// enc is a minimal protobuf encoder for building fixed test profiles.
type enc []byte

func (b *enc) varint(v uint64) {
	for v >= 0x80 {
		*b = append(*b, byte(v)|0x80)
		v >>= 7
	}
	*b = append(*b, byte(v))
}

func (b *enc) uint(num int, v uint64) {
	b.varint(uint64(num) << 3)
	b.varint(v)
}

func (b *enc) bytes(num int, data []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(data)))
	*b = append(*b, data...)
}

func (b *enc) packed(num int, vs ...uint64) {
	var inner enc
	for _, v := range vs {
		inner.varint(v)
	}
	b.bytes(num, inner)
}

// fixedProfile builds a gzipped CPU profile whose stacks exercise every
// attribution rule: runtime leaves charged to their repository caller,
// inlined frames, the facade, generic symbols, helper packages, and stacks
// with no repository frame.
func fixedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	funcs := []string{
		"runtime.mallocgc",                          // 1
		"dsmpm2/internal/memory.(*Space).Page",      // 2
		"dsmpm2/internal/sim.(*Engine).Run",         // 3
		"runtime.gcBgMarkWorker",                    // 4
		"dsmpm2.(*Thread).ReadUint64",               // 5
		"dsmpm2/internal/apps/jacobi.Run.func3",     // 6
		"dsmpm2/internal/core.lookup[...]",          // 7
		"dsmpm2/internal/freelist.(*List[...]).Get", // 8
		"runtime.goexit",                            // 9
		"dsmpm2/internal/madeleine.(*Network).Send", // 10
	}
	var p enc
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} { // samples/count, cpu/nanoseconds
		var vt enc
		vt.uint(1, st[0])
		vt.uint(2, st[1])
		p.bytes(1, vt)
	}
	// Each location holds one function, except location 11: memory inlined
	// into sim, innermost first.
	locs := map[uint64][]uint64{11: {2, 3}}
	for i := range funcs {
		locs[uint64(i+1)] = []uint64{uint64(i + 1)}
	}
	for id := uint64(1); id <= 11; id++ {
		var loc enc
		loc.uint(1, id)
		for _, fn := range locs[id] {
			var line enc
			line.uint(1, fn)
			line.uint(2, 42)
			loc.bytes(4, line)
		}
		p.bytes(4, loc)
	}
	for i, name := range funcs {
		var fn enc
		fn.uint(1, uint64(i+1))
		fn.uint(2, uint64(len(strs)))
		strs = append(strs, name)
		p.bytes(5, fn)
	}
	samples := []struct {
		locs   []uint64
		ms     uint64
		packed bool
	}{
		{[]uint64{1, 11, 9}, 10, true},    // mallocgc under inlined memory: memory
		{[]uint64{4, 9}, 20, false},       // GC worker alone: runtime
		{[]uint64{1, 5, 6, 9}, 30, true},  // facade under the app: core
		{[]uint64{7, 5}, 40, false},       // generic core symbol: core
		{[]uint64{1, 8, 10}, 5, true},     // helper package: other
		{[]uint64{6, 9}, 15, false},       // the app itself: app
		{[]uint64{3, 10, 9}, 25, true},    // sim leaf under madeleine: sim
		{[]uint64{1, 10, 3, 9}, 35, true}, // allocation in madeleine: madeleine
	}
	for _, s := range samples {
		var sm enc
		if s.packed {
			sm.packed(1, s.locs...)
			sm.packed(2, 1, s.ms*1e6)
		} else {
			for _, l := range s.locs {
				sm.uint(1, l)
			}
			sm.uint(2, 1)
			sm.uint(2, s.ms*1e6)
		}
		p.bytes(2, sm)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.uint(12, 10000000) // period: skipped by the reader
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeFixedProfile(t *testing.T) {
	p, err := parseProfile(fixedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIdx != 1 {
		t.Fatalf("value index %d, want 1 (the nanoseconds value)", p.valueIdx)
	}
	got, n := p.attribute()
	if n != 8 {
		t.Fatalf("%d samples, want 8", n)
	}
	want := map[string]int64{
		"memory": 10e6, "runtime": 20e6, "core": 70e6, "other": 5e6,
		"app": 15e6, "sim": 25e6, "madeleine": 35e6,
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("%s: %d ns, want %d", l, got[l], ns)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dsmpm2/internal/core.(*DSM).fault":         "dsmpm2/internal/core",
		"dsmpm2.(*Thread).ReadUint64":               "dsmpm2",
		"dsmpm2/internal/apps/kvstore.Run.func2.1":  "dsmpm2/internal/apps/kvstore",
		"dsmpm2/internal/sim.heap[go.shape.int].up": "dsmpm2/internal/sim",
		"runtime.mcall":                             "runtime",
		"main.main":                                 "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestParseRuntimeProfile decodes a profile written by runtime/pprof.
func TestParseRuntimeProfile(t *testing.T) {
	stop, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; {
		x += math.Sqrt(x + 1)
	}
	p, err := parseProfile(stop())
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIdx != 1 {
		t.Errorf("value index %d, want 1", p.valueIdx)
	}
	if got, n := p.attribute(); n > 0 && got["other"] == 0 {
		t.Errorf("%d samples of this test's own loop, none charged to other: %v", n, got)
	}
}

// TestIQRMatchesPythonQuantiles pins the spread to Python's
// statistics.quantiles(xs, n=4), which the benchmark's acceptance uses.
func TestIQRMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.0},
		{[]float64{10, 12, 11, 15, 9, 30, 11, 10}, 0.38636363636363635},
	} {
		if got := iqrFrac(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqrFrac(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json's metric lists in step
// with the metrics perfbench prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, perfbench %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestParseArgsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-workload", "jacobi", "-trace", "2"},
		{"-workload", "jacobi", "-seconds", "0"},
		{"-workload", "jacobi", "extra"},
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%v) accepted", args)
		}
	}
}
