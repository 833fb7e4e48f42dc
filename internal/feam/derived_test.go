package feam

import (
	"testing"

	"feam/internal/elfimg"
	"feam/internal/libver"
	"feam/internal/registry"
	"feam/internal/sitemodel"
	"feam/internal/store"
	"feam/internal/vfs"
)

// TestDerivedRecordEnvelope: a persisted value is served only to a lookup
// with the identity and stamp its envelope carries. A record filed under
// another value's store key — two shard roots whose hashes collide — and
// a record of an older stamp both read as misses.
func TestDerivedRecordEnvelope(t *testing.T) {
	st, err := store.Open(vfs.New(), "/state")
	if err != nil {
		t.Fatal(err)
	}
	site := sitemodel.New("envelope",
		sitemodel.Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64, CPUName: "x86_64"},
		sitemodel.OSInfo{Distro: "CentOS", Version: "5.6", Kernel: "2.6.18", ReleaseFile: "/etc/redhat-release"},
		libver.V(2, 5))
	rec := &shardRecord{Libs: []shardLib{{Path: "/lib64/libc.so.6", Name: "libc.so.6"}}}
	keepDerived(New(WithStore(st)), shardKind, site, "/lib64", 7, rec)

	// A fresh registry forces every fetch below to the store.
	fetch := func(root string, stamp uint64) string {
		_, source := fetchDerived(New(WithStore(st), WithRegistry(registry.New())), shardKind, site, root, stamp)
		return source
	}
	if got := fetch("/lib64", 7); got != "store" {
		t.Fatalf("matching record fetched from %q, want the store", got)
	}
	if got := fetch("/lib64", 8); got != "" {
		t.Fatalf("record of an older stamp served from %q", got)
	}
	payload, ok, err := st.Get(KindShard, recordKey(site, "/lib64"))
	if !ok || err != nil {
		t.Fatalf("persisted record: %v, %v", ok, err)
	}
	if err := st.Put(KindShard, recordKey(site, "/opt/x"), payload); err != nil {
		t.Fatal(err)
	}
	if got := fetch("/opt/x", 7); got != "" {
		t.Fatalf("record of root /lib64 served for /opt/x from %q", got)
	}
}
