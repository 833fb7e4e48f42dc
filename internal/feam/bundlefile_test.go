package feam_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"feam/internal/feam"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

// makeBundle produces a real source-phase bundle from the shared testbed.
func makeBundle(t *testing.T) *feam.Bundle {
	t.Helper()
	tb := sharedTestbed(t)
	ranger := tb.ByName["ranger"]
	rec := ranger.FindStack("mvapich2-1.2-gnu")
	art, err := toolchain.Compile(workload.Find("cg"), rec, ranger)
	if err != nil {
		t.Fatal(err)
	}
	path := "/home/user/bundle-test-" + art.Name
	if err := ranger.FS().WriteFile(path, art.Bytes); err != nil {
		t.Fatal(err)
	}
	snap := ranger.SnapshotEnv()
	defer ranger.RestoreEnv(snap)
	if err := testbed.ActivateStack(ranger, "mvapich2-1.2-gnu"); err != nil {
		t.Fatal(err)
	}
	runner := experimentRunner()
	bundle, _, err := feam.New().RunSourcePhase(context.Background(), testConfig("source", path), ranger, runner)
	if err != nil {
		t.Fatal(err)
	}
	return bundle
}

func TestBundleEncodeDecodeRoundTrip(t *testing.T) {
	bundle := makeBundle(t)
	data, err := feam.EncodeBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("FEAMBNDL")) {
		t.Error("missing magic")
	}
	got, err := feam.DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.SourceSite != bundle.SourceSite || !got.SourceGlibc.Equal(bundle.SourceGlibc) ||
		got.SourceStack != bundle.SourceStack {
		t.Errorf("meta: %q/%v/%q", got.SourceSite, got.SourceGlibc, got.SourceStack)
	}
	if got.App.Name != bundle.App.Name || got.App.MPIImpl != bundle.App.MPIImpl {
		t.Errorf("app: %+v", got.App)
	}
	if !reflect.DeepEqual(got.App.Needed, bundle.App.Needed) {
		t.Errorf("needed: %v vs %v", got.App.Needed, bundle.App.Needed)
	}
	if !got.App.RequiredGlibc.Equal(bundle.App.RequiredGlibc) {
		t.Errorf("required glibc: %v", got.App.RequiredGlibc)
	}
	if len(got.Libs) != len(bundle.Libs) {
		t.Fatalf("libs: %d vs %d", len(got.Libs), len(bundle.Libs))
	}
	for i := range got.Libs {
		a, b := got.Libs[i], bundle.Libs[i]
		if a.Name != b.Name || a.OriginPath != b.OriginPath {
			t.Errorf("lib %d: %q/%q vs %q/%q", i, a.Name, a.OriginPath, b.Name, b.OriginPath)
		}
		if !bytes.Equal(a.Data, b.Data) {
			t.Errorf("lib %s payload differs", a.Name)
		}
		if !reflect.DeepEqual(a.Attrs, b.Attrs) {
			t.Errorf("lib %s attrs %v vs %v", a.Name, a.Attrs, b.Attrs)
		}
		// Descriptions are re-derived and must match the originals.
		if a.Desc.Soname != b.Desc.Soname || !a.Desc.RequiredGlibc.Equal(b.Desc.RequiredGlibc) {
			t.Errorf("lib %s description drifted", a.Name)
		}
	}
	if got.MPIHello == nil || !bytes.Equal(got.MPIHello.Bytes, bundle.MPIHello.Bytes) {
		t.Error("MPI hello payload differs")
	}
	if got.MPIHello.Truth.StackKey != bundle.MPIHello.Truth.StackKey ||
		got.MPIHello.Truth.FeatureLevel != bundle.MPIHello.Truth.FeatureLevel ||
		!got.MPIHello.Truth.Hello {
		t.Errorf("hello truth: %+v", got.MPIHello.Truth)
	}
	if !bytes.Equal(got.AppBytes, bundle.AppBytes) {
		t.Error("application payload differs")
	}
	if got.Size() != bundle.Size() {
		t.Errorf("Size: %d vs %d", got.Size(), bundle.Size())
	}
}

func TestBundleDecodeRejectsCorruption(t *testing.T) {
	bundle := makeBundle(t)
	data, err := feam.EncodeBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle: the checksum must catch it.
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0xff
	if _, err := feam.DecodeBundle(corrupted); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption not detected: %v", err)
	}
	// Truncations never panic and always error.
	for _, n := range []int{0, 4, 8, 14, 20, len(data) / 2, len(data) - 1} {
		if _, err := feam.DecodeBundle(data[:n]); err == nil {
			t.Errorf("truncation to %d accepted", n)
		}
	}
	// Wrong magic.
	bad := append([]byte("NOTABNDL"), data[8:]...)
	if _, err := feam.DecodeBundle(bad); err == nil {
		t.Error("wrong magic accepted")
	}
}

func TestBundleDecodeGarbageQuick(t *testing.T) {
	// Property: DecodeBundle never panics on arbitrary input.
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("DecodeBundle panicked: %v", r)
			}
		}()
		_, _ = feam.DecodeBundle(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBundleTransportScenario ships a serialized bundle to a target site
// through its filesystem and uses it in a target phase — the full workflow
// the paper describes, including the "binary not present at target" mode.
func TestBundleTransportScenario(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	bundle := makeBundle(t)
	india := tb.ByName["india"]

	data, err := feam.EncodeBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if err := india.FS().WriteFile("/home/user/cg.feambundle", data); err != nil {
		t.Fatal(err)
	}
	// At the target, read it back off the site filesystem.
	raw, err := india.FS().ReadFile("/home/user/cg.feambundle")
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := feam.DecodeBundle(raw)
	if err != nil {
		t.Fatal(err)
	}

	// Target phase without the binary on site: the bundle alone suffices.
	cfg := testConfig("target", "")
	cfg.BundlePath = "/home/user/cg.feambundle"
	pred, _, err := eng.RunTargetPhase(ctx, cfg, india, shipped, experimentRunner())
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready {
		t.Fatalf("not ready: %v", pred.Reasons)
	}
	if len(pred.ResolvedLibs) == 0 {
		t.Error("expected resolution from the shipped bundle")
	}
}

func TestEncodeBundleValidation(t *testing.T) {
	if _, err := feam.EncodeBundle(nil); err == nil {
		t.Error("nil bundle accepted")
	}
	if _, err := feam.EncodeBundle(&feam.Bundle{}); err == nil {
		t.Error("empty bundle accepted")
	}
}
