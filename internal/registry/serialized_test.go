package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/live"
)

// TestSerializedHistoriesPinned pins the serial merged histories of the
// three mutex-serialized live objects by the SHA-256 of their fingerprints,
// and checks that Verify re-derives each one. The digests were recorded
// with the dedicated mutex adapter these objects had before they became
// SerializedImpl over a passthrough: a change to the adapter or its choice
// hash that moves their histories fails here.
func TestSerializedHistoriesPinned(t *testing.T) {
	cases := []struct{ name, policy, digest string }{
		{"mutex-fi", "never", "9ed5a9fd1a2cff58a83a221d4ae6ac483ca4d8edb5c342506d54dc02de536c99"},
		{"mutex-reg", "never", "28ac712928d7a3e95ded400158f4a50b7d3c939f1ad6077b8e3daca17db1cfe2"},
		{"el-fi", "window:300", "30a18d6f8f0f20c8754da064793cdeab1c7e6f56122366ddc368091c90458b31"},
	}
	for _, c := range cases {
		pol, err := Policy(c.policy)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := LiveObject(c.name, 2, pol, 9, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := OpGenByName("default", obj.Spec())
		if err != nil {
			t.Fatal(err)
		}
		res, err := live.Run(live.Config{
			Object: obj, Clients: 2, Ops: 1500, Gen: gen, Seed: 9, Serial: true,
			MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
		})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(res.History.AppendFingerprint(nil))
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s: history digest %s, want %s", c.name, got, c.digest)
		}
		if ok, err := live.Verify(obj, res.History); err != nil || !ok {
			t.Errorf("%s: Verify = %v, %v", c.name, ok, err)
		}
	}
}
