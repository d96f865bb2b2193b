package workload

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// shardedReducedFingerprintSHA256 is the sha256 of the reduced 16-chain
// policy-on cell's fingerprint (320 users, 2 min window). Any change to
// the simulation's event order, RNG streams or results moves it.
const shardedReducedFingerprintSHA256 = "4f4fba323908678973f28afccc0ddf0f3af84133a61600da2f173ba317041aa6"

// TestShardedScalingCrossGOMAXPROCSDeterminism pins the sharded scaling
// cell's determinism: a 16-chain policy-on run produces a bit-identical
// fingerprint (state roots, contract locations, move stats, deterministic
// counters) at every GOMAXPROCS — sender recovery and commit hashing still
// run on worker pools — and that fingerprint hashes to a pinned constant.
// Wired into `make detsmoke`.
func TestShardedScalingCrossGOMAXPROCSDeterminism(t *testing.T) {
	cell := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := DefaultShardedScalingConfig(16, true)
		cfg.Users = 320 // provisioning scale has its own gate (shardsmoke)
		cfg.Duration = 2 * time.Minute
		res, err := RunShardedScaling(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Moves.Completed == 0 {
			t.Fatal("cell completed no migrations; determinism check would be vacuous")
		}
		return res.Fingerprint
	}
	want := cell(1)
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(want))); sum != shardedReducedFingerprintSHA256 {
		t.Fatalf("fingerprint sha256 = %s, want %s:\n%.800s", sum, shardedReducedFingerprintSHA256, want)
	}
	seen := map[int]bool{1: true}
	for _, p := range []int{2, runtime.NumCPU()} {
		if seen[p] {
			continue
		}
		seen[p] = true
		if got := cell(p); got != want {
			t.Fatalf("GOMAXPROCS=%d diverged from GOMAXPROCS=1:\nwant:\n%.800s\n\ngot:\n%.800s", p, want, got)
		}
	}
}

// TestShardedScalingPolicyGain pins the experiment's headline: with every
// contract deployed on one congested shard, turning the migration engine
// on spreads contracts toward their callers and raises committed
// throughput.
func TestShardedScalingPolicyGain(t *testing.T) {
	run := func(policy bool) *ShardedScalingResult {
		cfg := DefaultShardedScalingConfig(4, policy)
		cfg.Users = 64
		cfg.Duration = 3 * time.Minute
		res, err := RunShardedScaling(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(false)
	on := run(true)
	if off.FinalSpread != 1 {
		t.Fatalf("baseline spread = %d, want 1 (all contracts stay on the hot shard)", off.FinalSpread)
	}
	if on.Moves.Completed == 0 {
		t.Fatal("policy run completed no migrations")
	}
	if on.FinalSpread < 2 {
		t.Fatalf("policy run spread = %d, want >= 2", on.FinalSpread)
	}
	if on.Committed <= off.Committed {
		t.Fatalf("policy gain = %d/%d <= 1; migration should relieve the hot shard",
			on.Committed, off.Committed)
	}
	t.Logf("policy gain %.2f (%d vs %d committed), %d moves, spread %d",
		float64(on.Committed)/float64(off.Committed), on.Committed, off.Committed,
		on.Moves.Completed, on.FinalSpread)
}

// TestShardSmoke is the full-scale gate behind `make shardsmoke`: a
// 64-chain universe with a 100k keyed-user population (SCMOVE_SHARDSMOKE_USERS
// scales it up to the 1M target), lazy relay mesh, and the migration engine
// live. The run must complete with migrations landing.
func TestShardSmoke(t *testing.T) {
	if os.Getenv("SCMOVE_SHARDSMOKE") == "" {
		t.Skip("set SCMOVE_SHARDSMOKE=1 (make shardsmoke) to run")
	}
	users := 100_000
	if s := os.Getenv("SCMOVE_SHARDSMOKE_USERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SCMOVE_SHARDSMOKE_USERS %q", s)
		}
		users = n
	}
	cfg := DefaultShardedScalingConfig(64, true)
	cfg.Users = users
	cfg.Duration = 3 * time.Minute
	res, err := RunShardedScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Moves.Completed == 0 {
		t.Fatal("policy completed no migrations at 64 chains")
	}
	if res.FinalSpread < 2 {
		t.Fatalf("contracts never left the hot shard (spread %d)", res.FinalSpread)
	}
	t.Logf("64 chains, %d users: %d committed (%.1f tx/s sim), %d/%d moves, spread %d, wall %s",
		users, res.Committed, res.Throughput, res.Moves.Completed, res.Moves.Issued,
		res.FinalSpread, res.Wall.Round(time.Millisecond))
}
