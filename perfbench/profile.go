package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// layers are the names CPU samples are charged to, one per module of
// scmove/internal (keys split into signing and the rest), plus net/http
// server frames, the benchmark's own code, the garbage collector and
// everything else.
var layers = []string{
	"keys.sign", "keys.verify", "rpc", "http", "loadgen", "txpool", "types",
	"codec", "chain", "chain.schedule", "evm", "contracts", "state",
	"state.backend", "iavl", "mpt", "hashing", "tendermint", "simnet",
	"simclock", "core", "relay", "shard", "universe", "workload", "metrics",
	"gc", "other",
}

const internalPrefix = "scmove/internal/"

// stack is one profile sample: function names from the leaf outwards, with
// inlined frames expanded, and the CPU time it stands for.
type stack struct {
	frames []string
	ns     int64
}

// attribute charges every sample to a layer.
func attribute(stacks []stack) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range stacks {
		out[classify(s.frames)] += s.ns
	}
	return out
}

// cpuPerOp converts per-layer CPU-ns into CPU-µs per operation for every
// layer, and returns the share of CPU charged to a layer other than
// "other".
func cpuPerOp(cpuNs map[string]int64, ops float64) (map[string]float64, float64) {
	out := make(map[string]float64, len(layers))
	var total int64
	for _, layer := range layers {
		ns := cpuNs[layer]
		total += ns
		out[layer] = float64(ns) / 1e3 / ops
	}
	if total == 0 {
		return out, 0
	}
	return out, 1 - float64(cpuNs["other"])/float64(total)
}

// classify walks a sample's stack from the leaf outwards and charges it to
// the first frame that names a layer:
//
//   - a garbage-collector frame (mark workers, assists, sweeping) → gc;
//   - a frame of scmove/internal/<module> → that module, with
//     chain/schedule and state/backend kept apart, trie and trees folded
//     into mpt, and keys split into (*KeyPair).Sign and the rest; u256 is
//     arithmetic on behalf of its caller, so the walk passes over it;
//   - the benchmark's own package (main) → loadgen;
//   - a net/http frame → http on a server connection's goroutine, and
//     loadgen on the benchmark's client side.
//
// A stack with none of these, such as the Go scheduler idling, is other.
func classify(frames []string) string {
	for i, f := range frames {
		switch {
		case isGCFrame(f):
			return "gc"
		case strings.HasPrefix(f, internalPrefix):
			layer := moduleLayer(f)
			if layer == "" {
				continue
			}
			if layer == "keys" {
				if slices.Contains(frames[i:], internalPrefix+"keys.(*KeyPair).Sign") {
					return "keys.sign"
				}
				return "keys.verify"
			}
			return layer
		case strings.HasPrefix(f, "main."):
			return "loadgen"
		case strings.HasPrefix(f, "net/http."):
			if slices.Contains(frames[i:], "net/http.(*conn).serve") {
				return "http"
			}
			return "loadgen"
		}
	}
	return "other"
}

// moduleLayer maps a scmove/internal function name to its layer, or ""
// for a package whose cost belongs to its caller.
func moduleLayer(f string) string {
	if i := strings.IndexByte(f, '['); i >= 0 {
		f = f[:i] // generic instantiation: its shape names other packages
	}
	rel := f[len(internalPrefix):]
	slash := strings.LastIndexByte(rel, '/')
	dot := strings.IndexByte(rel[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := rel[:slash+1+dot]
	switch pkg {
	case "chain/schedule":
		return "chain.schedule"
	case "state/backend":
		return "state.backend"
	case "trie", "trees", "mpt":
		return "mpt"
	case "u256":
		return ""
	}
	mod, _, _ := strings.Cut(pkg, "/")
	if mod == "keys" || slices.Contains(layers, mod) {
		return mod
	}
	return "other"
}

func isGCFrame(f string) bool {
	if !strings.HasPrefix(f, "runtime.") {
		return false
	}
	name := f[len("runtime."):]
	for _, p := range []string{"gc", "bgsweep", "bgscavenge", "markroot", "scanobject", "sweepone", "wbBuf"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// parseProfile decodes a gzipped runtime/pprof CPU profile (the
// profile.proto wire format) into stacks weighted by CPU nanoseconds.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []sample
		sampleTypes []int64 // string index of each value's type
		strs        []string
		locFuncs    = map[uint64][]uint64{} // location → function ids, leaf first
		funcNames   = map[uint64]int64{}    // function → string index
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range sampleTypes {
		if t >= 0 && t < int64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		st := stack{ns: s.values[cpu]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && idx < int64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed-width value, b a length-delimited one.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field that may be packed (b set) or
// not (one value v).
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
