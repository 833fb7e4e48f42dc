package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/scenario"
	"feam/internal/server"
)

// uploadClients is how many clients predict-upload runs. Each owns a
// disjoint seeded half of the fleet, so no two requests can coalesce.
const uploadClients = 2

// uploadBench drives POST /v1/predict through the server's handler in
// process, with no sockets: each request carries a corpus binary
// base64-encoded and asks for hello-world probes.
type uploadBench struct {
	spec  scenario.FleetSpec
	seed  int64
	sites []string
	bins  []*binary
	// b64 holds each corpus binary base64-encoded once, so a request body
	// is three readers and never a fresh copy of the image.
	b64 [][]byte
	// want[b][s] is the known answer for binary b at site s.
	want [][]verdict
	seq  [uploadClients][]request

	// fleetBuild is how long the reference fleet took to build: the
	// fleet part of server.New, which does not report it.
	fleetBuild time.Duration

	srv     *server.Server
	handler http.Handler
	writers [uploadClients]*recorder
}

// request is one pre-drawn request: a site, a binary and the JSON body up
// to the binary, which the request streams after it.
type request struct {
	site, bin int
	prefix    string
}

func (p *uploadBench) clients() int { return uploadClients }

func (p *uploadBench) generate(seed int64, sc scale, digest hash.Hash) error {
	p.seed = seed
	p.spec = fleetSpec(seed, sc.groupDiv)
	fmt.Fprintf(digest, "fleet %+v\n", p.spec)
	bins, err := compileCorpus()
	if err != nil {
		return err
	}
	p.bins = bins
	for _, b := range bins {
		p.b64 = append(p.b64, []byte(base64.StdEncoding.EncodeToString(b.image)))
		fmt.Fprintf(digest, "binary %s %x\n", b.name, sha256.Sum256(b.image))
	}
	t := time.Now()
	tb, err := scenario.BuildFleet(p.spec)
	if err != nil {
		return fmt.Errorf("building the reference fleet: %w", err)
	}
	p.fleetBuild = time.Since(t)
	for _, s := range tb.Sites {
		p.sites = append(p.sites, s.Name)
	}
	o := newOracle()
	p.want = make([][]verdict, len(bins))
	for bi, b := range bins {
		p.want[bi] = make([]verdict, len(tb.Sites))
		for si, s := range tb.Sites {
			if p.want[bi][si], err = o.verdict(s, b, true); err != nil {
				return err
			}
			fmt.Fprintf(digest, "want %d %d %s\n", bi, si, p.want[bi][si])
		}
	}
	// The fleet lists each group's sites together; splitting consecutive
	// pairs by coin flip gives each client a seeded half with the same mix
	// of groups.
	rng := rand.New(rand.NewSource(seed))
	var halves [uploadClients][]int
	for si := 0; si < len(p.sites); si += uploadClients {
		first := rng.Intn(uploadClients)
		for k := 0; k < uploadClients && si+k < len(p.sites); k++ {
			c := (first + k) % uploadClients
			halves[c] = append(halves[c], si+k)
		}
	}
	for c := range p.seq {
		sites, draw := newDeck(rng, ones(len(halves[c]))), newDeck(rng, shares(bins))
		p.seq[c] = make([]request, sc.seqLen)
		for i := range p.seq[c] {
			p.seq[c][i] = p.request(halves[c][sites.draw()], draw.draw())
			fmt.Fprintf(digest, "req %d %d %d\n", c, p.seq[c][i].site, p.seq[c][i].bin)
		}
	}
	return nil
}

func (p *uploadBench) request(site, bin int) request {
	return request{site: site, bin: bin,
		prefix: fmt.Sprintf(`{"site":%q,"name":%q,"probe":true,"binary_b64":"`, p.sites[site], p.bins[bin].name)}
}

func (p *uploadBench) build() (setupTimes, error) {
	t := time.Now()
	srv, err := server.New(server.Config{Fleet: p.spec, Seed: p.seed})
	if err != nil {
		return setupTimes{}, err
	}
	p.srv, p.handler = srv, srv.Handler()
	for c := range p.writers {
		p.writers[c] = newRecorder()
	}
	return setupTimes{fleet: p.fleetBuild, stack: time.Since(t), fleetInStack: true}, nil
}

// cold asks about every site once and describes every corpus binary, so
// the timed window finds every survey and description cached.
func (p *uploadBench) cold(ctx context.Context) error {
	for si := range p.sites {
		if res := p.send(ctx, nil, 0, p.request(si, si%len(p.bins))); res.cause != causeNone {
			return fmt.Errorf("%s", res.detail)
		}
	}
	return nil
}

func (p *uploadBench) op(ctx context.Context, tr *obs.Tracer, c, i int) opResult {
	seq := p.seq[c]
	return p.send(ctx, tr, c, seq[i%len(seq)])
}

func (p *uploadBench) send(ctx context.Context, tr *obs.Tracer, c int, r request) opResult {
	b64 := p.b64[r.bin]
	body := io.MultiReader(strings.NewReader(r.prefix), bytes.NewReader(b64), strings.NewReader(`"}`))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/predict", body)
	if err != nil {
		return opResult{cause: causeError, detail: err.Error()}
	}
	w := p.writers[c]
	w.reset()
	sp := tr.Start(rootHTTP)
	if sp != nil {
		req = req.WithContext(obs.ContextWithSpan(ctx, sp))
	}
	t := time.Now()
	p.handler.ServeHTTP(w, req)
	res := opResult{latency: time.Since(t), reqBytes: len(r.prefix) + len(b64) + 2, respBytes: w.body.Len()}
	sp.End(nil)
	site := p.sites[r.site]
	if w.status/100 != 2 {
		res.cause, res.detail = causeStatus, fmt.Sprintf("%s: status %d: %s", site, w.status, w.body.String())
		return res
	}
	got, err := decodeVerdict(w.body.Bytes())
	if err != nil {
		res.cause, res.detail = causeError, fmt.Sprintf("%s: %v", site, err)
		return res
	}
	if want := p.want[r.bin][r.site]; got != want {
		res.cause, res.detail = causeWrong, fmt.Sprintf("%s at %s: got %s, want %s", p.bins[r.bin].name, site, got, want)
	}
	return res
}

// decodeVerdict reads the ready flag and the first failing determinant
// out of a /v1/predict envelope.
func decodeVerdict(body []byte) (verdict, error) {
	var env struct {
		Data *struct {
			Ready        bool              `json:"ready"`
			Determinants map[string]string `json:"determinants"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return verdict{}, fmt.Errorf("decoding response: %w", err)
	}
	if env.Data == nil {
		return verdict{}, fmt.Errorf("response carries no data")
	}
	v := verdict{ready: env.Data.Ready}
	for _, d := range feam.Determinants() {
		if env.Data.Determinants[d.String()] == feam.Fail.String() {
			v.failed = d.String()
			break
		}
	}
	return v, nil
}

func (p *uploadBench) engine() *feam.Engine { return p.srv.Engine() }

func (p *uploadBench) coalescer() feam.CoalescerStats { return p.srv.CoalescerStats() }

func (p *uploadBench) release() { p.srv, p.handler = nil, nil }

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) reset() {
	r.status = 0
	r.body.Reset()
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}
