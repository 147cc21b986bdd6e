package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// suiteTablesSHA256 is the SHA-256 of every experiment's table at
// ScaledOptions(16), seed 1, joined by blank lines as
// `dtexlbench -exp all -scale 16` prints them. The rendered tables stay
// byte-identical across refactors; only a deliberate modelling change
// re-records this digest, and says so.
const suiteTablesSHA256 = "95149efc302f7eed5975cb964fbd776ea4f8fc66e33c1add4a660a8fe7e1775d"

// TestSuiteTablesGolden guards the byte identity of the whole evaluation
// at a small scale: any change to simulated behaviour, table rendering
// or the Warm/memo sharing shows up as a new digest.
func TestSuiteTablesGolden(t *testing.T) {
	r := NewRunner(ScaledOptions(16))
	if err := r.WarmAll(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, id := range ExperimentIDs() {
		if i > 0 {
			buf.WriteByte('\n')
		}
		if err := r.RunExperiment(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != suiteTablesSHA256 {
		t.Errorf("suite tables at scale 16 changed: SHA-256 %s, want %s", got, suiteTablesSHA256)
	}
}
