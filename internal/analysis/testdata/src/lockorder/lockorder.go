// Package lockorder is golden input for the lockorder analyzer.
package lockorder

import "sync"

type engine struct {
	mu    sync.Mutex
	locks map[string]*sync.Mutex
}

// SiteLock mirrors Engine.SiteLock: leaf-mutex-guarded map access only.
func (e *engine) SiteLock(name string) *sync.Mutex {
	e.mu.Lock()
	defer e.mu.Unlock()
	l, ok := e.locks[name]
	if !ok {
		l = &sync.Mutex{}
		e.locks[name] = l
	}
	return l
}

func runProbe() {}

func (e *engine) Evaluate() {}

// okLeafUse holds the engine mutex for map bookkeeping only.
func (e *engine) okLeafUse(k string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.locks)
}

// okSnapshotThenWork unlocks before the blocking call.
func (e *engine) okSnapshotThenWork() {
	e.mu.Lock()
	n := len(e.locks)
	e.mu.Unlock()
	_ = n
	runProbe()
}

// okProbeUnderSiteLock is the documented contract: probes and staging run
// under the per-site serialization lock.
func (e *engine) okProbeUnderSiteLock() {
	l := e.SiteLock("a")
	l.Lock()
	defer l.Unlock()
	runProbe()
	e.Evaluate()
}

// badProbeUnderMu blocks the whole engine on one probe run.
func (e *engine) badProbeUnderMu() {
	e.mu.Lock()
	defer e.mu.Unlock()
	runProbe() // want `while holding e.mu`
}

// probeRunner mirrors fault.Runner: opening a session activates a stack
// and validates a submission script at the site.
type probeRunner struct{}

func (probeRunner) BeginProbeBatch(site, stackKey string) {}

// badBeginProbeBatchUnderMu opens a probe session under the leaf mutex.
func (e *engine) badBeginProbeBatchUnderMu(r probeRunner) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r.BeginProbeBatch("a", "mpich2") // want `BeginProbeBatch while holding e.mu`
}

func surveySite() {}

func keepDerived() {}

// badSurveyUnderMu runs a real survey under the leaf mutex.
func (e *engine) badSurveyUnderMu() {
	e.mu.Lock()
	defer e.mu.Unlock()
	surveySite() // want `surveySite while holding e.mu`
}

// badPersistUnderMu keeps (and persists) a derived value under the leaf
// mutex.
func (e *engine) badPersistUnderMu() {
	e.mu.Lock()
	defer e.mu.Unlock()
	keepDerived() // want `keepDerived while holding e.mu`
}

// badEvaluateUnderMu reenters the pipeline under the leaf mutex.
func (e *engine) badEvaluateUnderMu() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Evaluate() // want `while holding e.mu`
}

// badLockUnderMu acquires another lock while holding the leaf mutex.
func (e *engine) badLockUnderMu() {
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.SiteLock("a")
	l.Lock() // want `while holding the leaf mutex e.mu`
	l.Unlock()
}

// badNestedSiteLocks holds two unordered per-site locks at once: two
// surveys visiting the same pair of sites in opposite orders deadlock.
func (e *engine) badNestedSiteLocks() {
	a := e.SiteLock("a")
	a.Lock()
	defer a.Unlock()
	b := e.SiteLock("b")
	b.Lock() // want `per-site locks are unordered`
	defer b.Unlock()
}

// badProbeUnderMuInBranch is caught inside nested blocks too.
func (e *engine) badProbeUnderMuInBranch(cond bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cond {
		runProbe() // want `while holding e.mu`
	}
}

// suppressedProbeUnderMu documents a deliberate exception (no want
// clause: the harness verifies suppression).
func (e *engine) suppressedProbeUnderMu() {
	e.mu.Lock()
	defer e.mu.Unlock()
	//lint:ignore lockorder startup-only path, no concurrent callers yet
	runProbe()
}
