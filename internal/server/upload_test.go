package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/scenario"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

// compileCorpus builds one corpus binary at a fleet site with one of its
// stacks.
func compileCorpus(tb testing.TB, s *Server, code, site, stack string) []byte {
	tb.Helper()
	at := s.tb.ByName[site]
	art, err := toolchain.Compile(workload.Find(code), at.FindStack(stack), at)
	if err != nil {
		tb.Fatalf("compiling %s at %s with %s: %v", code, site, stack, err)
	}
	return art.Bytes
}

// TestPredictTooLarge: a binary over MaxBinaryBytes and a body over twice
// that both answer 413, whether the binary decodes past the cap or the
// body is cut off reading it.
func TestPredictTooLarge(t *testing.T) {
	s, err := New(Config{Fleet: scenario.FleetSpec{Base: scenario.FleetBaseTable2}, MaxBinaryBytes: 1024})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	b64 := func(n int) string { return base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0x7f}, n)) }
	for _, tc := range []struct {
		name   string
		b64    string
		status int
		code   string
	}{
		{"binary over cap", b64(1200), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"body over cap", b64(1600), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"body far over cap", b64(4000), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"bad base64", "!!!", http.StatusBadRequest, CodeBadRequest},
	} {
		status, env := postPredict(t, ts.URL, `{"site":"india","binary_b64":"`+tc.b64+`"}`)
		if status != tc.status || env.Error == nil || env.Error.Code != tc.code {
			t.Errorf("%s: predict = %d %+v, want %d %s", tc.name, status, env.Error, tc.status, tc.code)
		}
	}
}

// TestReadBodyIgnoresContentLength: the body buffer grows with the bytes
// that arrive, not with the length a client declares, so headers alone
// cannot make the server allocate up to the body cap.
func TestReadBodyIgnoresContentLength(t *testing.T) {
	const limit, sent = 16 << 20, `{"site":"india"}`
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(sent))
	r.ContentLength = limit
	body, err := readBody(httptest.NewRecorder(), r, limit)
	if err != nil || string(body) != sent {
		t.Fatalf("readBody = %q, %v; want %q", body, err, sent)
	}
	if cap(body) > 64<<10 {
		t.Fatalf("readBody buffer cap = %d for a %d-byte body declared as %d bytes", cap(body), len(body), limit)
	}
}

// describeLog records, for every describe span, the BDC cache outcome it
// reported ("miss", or "hit/" plus the source).
type describeLog struct {
	mu       sync.Mutex
	outcomes []string
}

func (l *describeLog) SpanStarted(*obs.Span) {}
func (l *describeLog) SpanEnded(*obs.Span)   {}
func (l *describeLog) SpanEvent(sp *obs.Span, e obs.Event) {
	if sp.Op != obs.OpDescribe || e.Name != obs.EvCache {
		return
	}
	outcome := "miss"
	if e.Attrs[obs.AttrHit] == "true" {
		outcome = "hit/" + e.Attrs[obs.AttrSource]
	}
	l.mu.Lock()
	l.outcomes = append(l.outcomes, outcome)
	l.mu.Unlock()
}

func (l *describeLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.outcomes
	l.outcomes = nil
	return out
}

// TestPredictUpload: a compiled corpus binary uploaded over a real socket
// gets the engine's own verdict whether the body takes the fast path, the
// encoding/json path (every '/' escaped) or arrives as a batch entry, and
// each upload is described exactly once, the repeats from the registry,
// also when several arrive at once.
func TestPredictUpload(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	log := &describeLog{}
	s.tracer.AddSink(log)

	bin := compileCorpus(t, s, "cg", "ranger", "mvapich2-1.2-gnu")
	ref, err := feam.New().Predict(context.Background(), feam.EvalRequest{
		Binary: bin, BinaryName: "cg", Site: s.tb.ByName["india"],
		Options: feam.EvalOptions{Runner: s.runner},
	})
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	want := map[string]string{}
	for _, d := range feam.Determinants() {
		want[d.String()] = ref.Determinants[d].Outcome.String()
	}

	b64 := base64.StdEncoding.EncodeToString(bin)
	if !strings.Contains(b64, "/") {
		t.Fatal("the encoded binary has no '/' to escape")
	}
	upload := func(body, name string, batch bool) error {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		var env struct {
			Data struct {
				*PredictResponse
				Results []PredictResult `json:"results"`
			} `json:"data"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			return fmt.Errorf("response %s: %w", raw, err)
		}
		got := env.Data.PredictResponse
		if batch {
			if len(env.Data.Results) != 1 {
				return fmt.Errorf("batch response %s", raw)
			}
			got = env.Data.Results[0].Data
		}
		if got == nil || got.Binary != name || got.Ready != ref.Ready || !reflect.DeepEqual(got.Determinants, want) {
			return fmt.Errorf("answer %+v, want %s ready=%t %v", got, name, ref.Ready, want)
		}
		return nil
	}

	single := `{"site":"india","name":"cg","probe":true,"binary_b64":"` + b64 + `"}`
	for _, tc := range []struct {
		name, body string
		batch      bool
		describe   string
	}{
		{"fast path", single, false, "miss"},
		{"escaped slashes", strings.ReplaceAll(single, "/", `\/`), false, "hit/registry"},
		{"batch entry", `{"requests":[` + single + `]}`, true, "hit/registry"},
	} {
		if err := upload(tc.body, "cg", tc.batch); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if outcomes := log.take(); len(outcomes) != 1 || outcomes[0] != tc.describe {
			t.Errorf("%s: describe spans %v, want one %s", tc.name, outcomes, tc.describe)
		}
	}

	// Concurrent uploads under a fresh name describe at once, outside the
	// site lock, before the coalescer orders them.
	const K = 4
	fresh := strings.Replace(single, `"name":"cg"`, `"name":"cg-concurrent"`, 1)
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = upload(fresh, "cg-concurrent", false)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent upload %d: %v", i, err)
		}
	}
	if outcomes := log.take(); len(outcomes) != K {
		t.Errorf("%d concurrent uploads made describe spans %v, want %d", K, outcomes, K)
	}
}

// bodyCase is one /v1/predict body with whether the fast path should
// take it.
type bodyCase struct {
	name, body string
	fast       bool
}

// bodyCases are /v1/predict bodies around a valid binary_b64, with whether
// the fast path should take them. A body it silently stops taking is
// slower but still correct, so only this table notices.
var bodyCases = append([]bodyCase{
	{"upload shape", `{"site":"india","name":"is","probe":true,"binary_b64":"QUJD"}`, true},
	{"reordered keys", `{"binary_b64":"QUJDRA==","probe":true,"name":"is","site":"india"}`, true},
	{"extra whitespace", " \t\r\n{ \"site\" : \"india\" ,\n\t\"binary_b64\"\r\n:  \"QUJD\" \n}\n ", true},
	{"nested objects", `{"site":"in\"dia","x":{"binary_b64":"REVG","y":[1,"]}",{}]},"binary_b64":"QUJD"}`, true},
	{"batch beside a binary", `{"requests":[{"site":"india","binary_b64":"REVG"}],"binary_b64":"QUJD"}`, true},
	{"8 characters", `{"binary_b64":"QUJDREVG"}`, true},
	{"12 characters", `{"binary_b64":"QUJDREVGR0hJ"}`, true},
	{"16 characters", `{"binary_b64":"QUJDREVGR0hJSktM"}`, true},
	{"every character in every position", `{"binary_b64":"` + alphabetRotations() + `QUJDREVG"}`, true},
	{"tail QQ==", `{"binary_b64":"QUJDREVGR0hJQQ=="}`, true},
	{"tail QR==", `{"binary_b64":"QUJDREVGR0hJQR=="}`, true},
	{"tail QUI=", `{"binary_b64":"QUJDREVGR0hJQUI="}`, true},
	{"tail QUJD", `{"binary_b64":"QUJDREVGR0hJQUJD"}`, true},
	{"batch", `{"requests":[{"site":"india","binary_b64":"QUJD"}]}`, false},
	{"escaped binary key", `{"site":"india","binary\u005fb64":"QUJD"}`, false},
	{"escaped other key", `{"s\u0069te":"india","binary_b64":"QUJD"}`, false},
	{"escaped value", `{"site":"india","binary_b64":"QU\/D"}`, false},
	{"duplicate key", `{"binary_b64":"QUJD","site":"india","binary_b64":"REVG"}`, false},
	{"case-variant key", `{"site":"india","Binary_B64":"QUJD"}`, false},
	{"exact and case-variant keys", `{"binary_b64":"QUJD","BINARY_B64":"REVG"}`, false},
	{"CR in value", "{\"site\":\"india\",\"binary_b64\":\"QU\rJD\"}", false},
	{"LF in value", "{\"site\":\"india\",\"binary_b64\":\"QUJD\n\"}", false},
	{"escaped CRLF in value", `{"site":"india","binary_b64":"QUJD\r\n"}`, false},
	{"CR and LF filling the last quad", "{\"binary_b64\":\"QUJDREVG\r\n\r\n\"}", false},
	{"CR and LF in a two-quad tail", "{\"binary_b64\":\"QUJDREVGQUJD\r\n\r\n\"}", false},
	{"length not a multiple of four", `{"binary_b64":"QUJDREVGRA"}`, false},
	{"empty value", `{"site":"india","binary_b64":""}`, false},
	{"null value", `{"site":"india","binary_b64":null}`, false},
	{"bad base64", `{"site":"india","binary_b64":"!!!"}`, false},
	{"bad field type", `{"site":1,"binary_b64":"QUJD"}`, false},
	{"bad field type after the value", `{"binary_b64":"QUJDREVGR0hJSktM","site":1}`, false},
	{"not an object", `["binary_b64","QUJD"]`, false},
	{"trailing bytes", `{"binary_b64":"QUJD"} {}`, false},
	{"unterminated", `{"binary_b64":"QUJD"`, false},
}, badByteCases()...)

// alphabetRotations returns the base64 alphabet four times, rotated by
// one more character each time, so every character of it appears at every
// position of a quad.
func alphabetRotations() string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	var b strings.Builder
	for r := 0; r < 4; r++ {
		b.WriteString(alphabet[r:] + alphabet[:r])
	}
	return b.String()
}

// badByteCases puts each byte the decoder must refuse at the first, a
// middle and the last position of the in-place bulk and at the start of
// the last quad, which encoding/base64 decodes. The 40-character value
// has four bulk steps, characters 0-31, and a tail of two quads, so a
// refusal in the middle, at the end of the bulk and in the tail undoes
// two, three and four steps.
func badByteCases() []bodyCase {
	const value = "QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVphYmNk"
	var out []bodyCase
	for _, c := range []byte{'\\', '\r', '\n', '=', '-', '_', ' ', 0x80, '"'} {
		for _, at := range []struct {
			where string
			i     int
		}{{"first", 0}, {"middle", 17}, {"last bulk", 31}, {"tail", 36}} {
			v := []byte(value)
			v[at.i] = c
			out = append(out, bodyCase{
				name: fmt.Sprintf("%q at %s position", c, at.where),
				body: `{"site":"india","binary_b64":"` + string(v) + `"}`,
			})
		}
	}
	return out
}

// TestPredictBodyFastPath pins which bodies the fast path takes, and that
// every one decodes as encoding/json and encoding/base64 would.
func TestPredictBodyFastPath(t *testing.T) {
	for _, tc := range bodyCases {
		if fast := checkBodyDecode(t, []byte(tc.body)); fast != tc.fast {
			t.Errorf("%s: fast path taken = %t, want %t", tc.name, fast, tc.fast)
		}
	}
}

// FuzzPredictBody: on any body, decodePredictBody followed by the base64
// decode predictOne applies to a still-encoded binary agrees with
// json.Unmarshal plus base64.StdEncoding.DecodeString on every field, on
// the decoded bytes and on the error text.
func FuzzPredictBody(f *testing.F) {
	for _, tc := range bodyCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBodyDecode(t, body)
	})
}

// checkBodyDecode compares decodePredictBody on a copy of body with the
// independent reference and reports whether the fast path took it. A body
// it does not take must come back byte-identical.
func checkBodyDecode(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	var want predictBody
	wantErr := json.Unmarshal(body, &want)
	buf := bytes.Clone(body)
	got, bin, err := decodePredictBody(buf)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("body %q: error %v, want %v", body, err, wantErr)
	}
	if bin == nil {
		if !bytes.Equal(buf, body) {
			t.Fatalf("body %q: not taken, but left as %q", body, buf)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded %+v, want %+v", body, got, want)
		}
		return false
	}
	if wantErr != nil || want.BinaryB64 == "" || got.BinaryB64 != "" {
		t.Fatalf("body %q: fast path decoded a binary where encoding/json has %q (err %v)", body, want.BinaryB64, wantErr)
	}
	wantBin, b64Err := base64.StdEncoding.DecodeString(want.BinaryB64)
	if b64Err != nil || !bytes.Equal(bin, wantBin) {
		t.Fatalf("body %q: fast path decoded %x, want %x (err %v)", body, bin, wantBin, b64Err)
	}
	if len(bin) != cap(bin) {
		t.Fatalf("body %q: binary has cap %d beyond its %d bytes, so an append could reach the envelope", body, cap(bin), len(bin))
	}
	got.BinaryB64 = want.BinaryB64
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoded %+v, want %+v", body, got, want)
	}
	return true
}

// TestDecodeBodyAllocs: the fast path decodes an upload in the body's own
// buffer, so a 1 MiB binary costs the envelope's allocations and not a
// second buffer of its size.
func TestDecodeBodyAllocs(t *testing.T) {
	const runs, budget = 8, 16 << 10
	bin := make([]byte, 1<<20)
	for i := range bin {
		bin[i] = byte(i * 7)
	}
	body := []byte(`{"site":"india","name":"big","probe":true,"binary_b64":"` + base64.StdEncoding.EncodeToString(bin) + `"}`)
	// Each call writes the image over its body, so every call gets its
	// own copy, made before measuring.
	bodies := make([][]byte, runs)
	for i := range bodies {
		bodies[i] = bytes.Clone(body)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bodies {
		if _, got, err := decodePredictBody(b); err != nil || !bytes.Equal(got, bin) {
			t.Fatalf("fast path did not decode the 1 MiB binary (err %v)", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= budget {
		t.Fatalf("decodePredictBody allocated %d bytes per call for a 1 MiB binary, want under %d", per, budget)
	}
}

// BenchmarkPredictUpload posts a ~90 KB and a ~2.6 MB corpus image through
// the handler in process, with the body streamed from three readers and
// so no Content-Length.
func BenchmarkPredictUpload(b *testing.B) {
	s, err := New(Config{Fleet: scenario.FleetSpec{Base: scenario.FleetBaseTable2}})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	h := s.Handler()
	for _, c := range []struct{ code, site, stack string }{
		{"is", "ranger", "openmpi-1.3-gnu"},
		{"126.lammps", "india", "openmpi-1.4-gnu"},
	} {
		b64 := []byte(base64.StdEncoding.EncodeToString(compileCorpus(b, s, c.code, c.site, c.stack)))
		prefix := fmt.Sprintf(`{"site":"india","name":%q,"probe":true,"binary_b64":"`, c.code)
		send := func(b *testing.B) {
			body := io.MultiReader(strings.NewReader(prefix), bytes.NewReader(b64), strings.NewReader(`"}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", body))
			if w.Code != http.StatusOK {
				b.Fatalf("predict %s = %d: %s", c.code, w.Code, w.Body)
			}
		}
		b.Run(c.code, func(b *testing.B) {
			send(b) // describe, survey and probe once, off the clock
			b.SetBytes(int64(len(prefix) + len(b64) + 2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send(b)
			}
		})
	}
}
