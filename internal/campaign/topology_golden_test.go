package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"reorder/internal/netem"
)

// Routed-topology goldens: SHA-256 of the JSONL and CSV of topoGoldenSpec
// at samples 4, captured while the sender and server still filled payloads
// byte by byte and the event heap still carried its callbacks. Speed work
// on those layers must leave every routed topology, with and without TCP
// cross traffic, producing these exact bytes at any worker count.
const (
	goldenTopoJSONLSHA = "a10b91db04332692c9261ac802d624ed9e18e2a649f20305d87c182581ffee00"
	goldenTopoCSVSHA   = "72e37b3d746b54969f10045452cf568bd09c8ba56e593b87d99fb677cf10b70f"
)

// topoGoldenSpec covers all four routed topologies (three of them loaded
// by background tcpsender flows) with every technique, over a profile ×
// impairment subset small enough for a unit test.
func topoGoldenSpec() EnumSpec {
	return EnumSpec{
		Profiles:    []string{"freebsd4", "linux24"},
		Impairments: []string{"clean", "swap-light", "lossy"},
		Topologies:  []string{"bottleneck", "parallel-x2", "diamond", "multihop"},
		Seeds:       1,
		BaseSeed:    719,
	}
}

// runTopoCampaign runs topoGoldenSpec and returns its JSONL and CSV.
func runTopoCampaign(t *testing.T, workers int) (jsonl, csv []byte) {
	t.Helper()
	targets, err := Enumerate(topoGoldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	csvPath := filepath.Join(dir, "out.csv")
	if _, err := Run(Config{
		Targets: targets, Samples: 4, Workers: workers,
		OutputPath: out, CSVPath: csvPath,
	}); err != nil {
		t.Fatal(err)
	}
	if jsonl, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	if csv, err = os.ReadFile(csvPath); err != nil {
		t.Fatal(err)
	}
	return jsonl, csv
}

func TestTopologyCampaignGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		jsonl, csv := runTopoCampaign(t, workers)
		if got := sha256Hex(jsonl); got != goldenTopoJSONLSHA {
			t.Errorf("%s: JSONL sha256 %s, want golden %s", name, got, goldenTopoJSONLSHA)
		}
		if got := sha256Hex(csv); got != goldenTopoCSVSHA {
			t.Errorf("%s: CSV sha256 %s, want golden %s", name, got, goldenTopoCSVSHA)
		}
	}
}

// TestViewDifferentialTopologies extends TestViewDifferentialCatalog to
// the routed graphs: routers, shared link queues and the cross-traffic
// senders' data segments must carry the same bytes as views and as eagerly
// encoded wire frames.
func TestViewDifferentialTopologies(t *testing.T) {
	prev := netem.DebugForceMaterialize
	netem.DebugForceMaterialize = true
	defer func() { netem.DebugForceMaterialize = prev }()
	jsonl, csv := runTopoCampaign(t, 4)
	if got := sha256Hex(jsonl); got != goldenTopoJSONLSHA {
		t.Errorf("force-materialize JSONL sha256 %s, want golden %s", got, goldenTopoJSONLSHA)
	}
	if got := sha256Hex(csv); got != goldenTopoCSVSHA {
		t.Errorf("force-materialize CSV sha256 %s, want golden %s", got, goldenTopoCSVSHA)
	}
}
