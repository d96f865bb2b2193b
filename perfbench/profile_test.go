package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		want   string
		frames []string // leaf first
	}{
		{"keys.sign", []string{"crypto/internal/fips140/nistec.(*P256Point).ScalarBaseMult",
			"crypto/ecdsa.SignASN1", "scmove/internal/keys.(*KeyPair).Sign",
			"scmove/internal/types.(*Transaction).SignOn.func1", "scmove/internal/keys.(*Pool).worker"}},
		{"keys.verify", []string{"crypto/ecdsa.VerifyASN1", "scmove/internal/keys.Signature.Verify",
			"scmove/internal/types.(*Transaction).Sender", "scmove/internal/txpool.(*Pool).Add"}},
		{"txpool", []string{"runtime.mapassign", "scmove/internal/txpool.(*Pool).Add",
			"scmove/internal/chain.(*Chain).SubmitTx"}},
		{"http", []string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*response).finishRequest",
			"net/http.(*conn).serve"}},
		{"rpc", []string{"encoding/json.Unmarshal", "scmove/internal/rpc.(*Server).handle",
			"net/http.HandlerFunc.ServeHTTP", "net/http.(*conn).serve"}},
		{"loadgen", []string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"}},
		{"loadgen", []string{"encoding/json.Unmarshal", "main.postSubmit", "main.runRPCTransfers.func2"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"scmove/internal/state.(*DB).Commit"}},
		{"state", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "scmove/internal/state.(*DB).Commit"}},
		{"state", []string{"scmove/internal/u256.Int.Add", "scmove/internal/state.(*DB).AddBalance"}},
		{"chain.schedule", []string{"scmove/internal/chain/schedule.Build", "scmove/internal/chain.(*Chain).ApplyBlock"}},
		{"state.backend", []string{"syscall.Write", "scmove/internal/state/backend.(*File).Commit"}},
		{"mpt", []string{"scmove/internal/trie.(*Trie).Hash"}},
		{"mpt", []string{"scmove/internal/trees.VerifyProof", "scmove/internal/core.VerifyMove2"}},
		{"iavl", []string{"bytes.Compare", "scmove/internal/iavl.(*node).hash"}},
		{"hashing", []string{"crypto/sha256.block", "scmove/internal/hashing.Sum", "scmove/internal/iavl.(*node).hash"}},
		{"simclock", []string{"scmove/internal/simclock.(*eventHeap[go.shape.*scmove/internal/chain.Chain]).push"}},
		{"other", []string{"scmove/internal/lang.Parse"}},
		{"other", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}},
		{"other", nil},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestCPUPerOp(t *testing.T) {
	shares, frac := cpuPerOp(map[string]int64{"state": 3000, "other": 1000}, 2)
	if shares["state"] != 1.5 || shares["other"] != 0.5 || frac != 0.75 {
		t.Fatalf("shares %v frac %v", shares, frac)
	}
	if len(shares) != len(layers) {
		t.Fatalf("%d shares for %d layers", len(shares), len(layers))
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseProfile decodes a real runtime/pprof CPU profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.ns
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.ns
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("%d stacks, %d ns total, %d ns in spin", len(stacks), total, inSpin)
	}
}
