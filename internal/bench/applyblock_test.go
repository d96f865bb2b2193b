package bench

import (
	"reflect"
	"runtime"
	"testing"
)

// TestApplyBlockParallelMatchesSerial checks that the parallel work around
// the serial ApplyBlock loop — sender recovery on the crypto pool and
// commit hashing — cannot change a block's outcome: the disjoint, the
// fully conflicting and the Kitties breeding-DAG blocks must commit the
// same root and receipts at every GOMAXPROCS.
func TestApplyBlockParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (*ApplyBlockResult, error)
	}{
		{"disjoint", func() (*ApplyBlockResult, error) {
			return RunApplyBlock(ApplyBlockConfig{Senders: 16, Txs: 64})
		}},
		{"conflicting", func() (*ApplyBlockResult, error) {
			return RunApplyBlock(ApplyBlockConfig{Senders: 16, Txs: 64, Conflicting: true})
		}},
		{"kitties_dag", RunKittiesDAG},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want *ApplyBlockResult
			for _, procs := range []int{1, 2, 4, runtime.NumCPU()} {
				prev := runtime.GOMAXPROCS(procs)
				got, err := tc.run()
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if want == nil {
					want = got
					continue
				}
				if got.Root != want.Root {
					t.Fatalf("GOMAXPROCS=%d: root %s != GOMAXPROCS=1 root %s", procs, got.Root, want.Root)
				}
				if !reflect.DeepEqual(got.Receipts, want.Receipts) {
					t.Fatalf("GOMAXPROCS=%d: receipts diverge from GOMAXPROCS=1", procs)
				}
			}
		})
	}
}

// TestChaosCellCrossGOMAXPROCS is the chaos cell of the determinism suite:
// the full fault-injected Move scenario (20% drops, 20% duplicates on every
// path) must produce identical simulated results at GOMAXPROCS=1 and at the
// host's CPU count, where sender recovery and commit hashing fan out.
func TestChaosCellCrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GOMAXPROCS chaos runs are slow in -short mode")
	}
	prev := runtime.GOMAXPROCS(1)
	serial := chaosFingerprint(t, true, false)
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := chaosFingerprint(t, true, false)
	runtime.GOMAXPROCS(prev)
	if serial != parallel {
		t.Fatalf("parallel execution changed simulated chaos results\nserial:\n%sparallel:\n%s",
			serial, parallel)
	}
}
