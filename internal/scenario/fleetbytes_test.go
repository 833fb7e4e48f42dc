package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"feam/internal/vfs"
)

// isaMixFleetDigest is fleetDigest of the isa-mix fleet. It must not
// change: building fleets faster, or their sites in another order, must
// leave every file of every site as it was.
const isaMixFleetDigest = "879c0f3796c559a9110474601a94140c857b1b218ec1f55ac9179e5512e9c058"

// fleetDigest hashes every entry of every site, in fleet and walk order:
// the site name, then each entry's path, kind, link target and bytes (read
// with ReadFileShared). The bytes go in as their SHA-256, computed once
// per stored copy: isa-mix's 3,480 files have 1,474, as sites share their
// library images.
func fleetDigest(t *testing.T, spec FleetSpec) string {
	t.Helper()
	tb, err := BuildFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	type stored struct {
		first *byte
		n     int
	}
	sums := map[stored][32]byte{}
	files := 0
	h := sha256.New()
	field := func(b []byte) {
		h.Write(binary.AppendUvarint(nil, uint64(len(b))))
		h.Write(b)
	}
	for _, site := range tb.Sites {
		field([]byte(site.Name))
		err := site.FS().Walk("/", func(p string, info vfs.FileInfo) error {
			field([]byte(p))
			field([]byte{byte(info.Kind)})
			field([]byte(info.Target))
			if info.Kind != vfs.KindFile {
				return nil
			}
			data, err := site.FS().ReadFileShared(p)
			if err != nil {
				return err
			}
			files++
			var key stored
			if len(data) > 0 {
				key = stored{&data[0], len(data)}
			}
			sum, ok := sums[key]
			if !ok {
				sum = sha256.Sum256(data)
				sums[key] = sum
			}
			field(sum[:])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d sites, %d files, %d stored copies", len(tb.Sites), files, len(sums))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFleetBytesUnchanged builds isa-mix's 120-site fleet and compares the
// digest of every site's files with the recorded one.
func TestFleetBytesUnchanged(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(scenarioDir, "isa-mix.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadFleet(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetDigest(t, spec); got != isaMixFleetDigest {
		t.Errorf("isa-mix fleet digest %s, want %s: a site's files changed", got, isaMixFleetDigest)
	}
}
