package analysis

import (
	"go/ast"
	"strings"
)

// LockOrder enforces the locking discipline documented on Engine (PR 1)
// and exercised by RankSites: the engine's registry mutex (e.mu)
// is a leaf lock guarding map lookups only — holding it across probe
// runs, staging operations, retry loops, or another lock acquisition
// serializes the whole survey fan-out (or deadlocks it); and per-site
// locks obtained from SiteLock are unordered, so acquiring a second site
// lock while holding one can deadlock two concurrent surveys that visit
// the same pair of sites in opposite orders.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "no probe/exec/staging/retry call and no second lock acquisition while " +
		"holding the engine mutex; never nest per-site locks from SiteLock",
	Run: runLockOrder,
}

// lockBlockers are direct calls that block for simulated work: probe
// sessions and executions, staging writes, retry/backoff loops, and
// whole-pipeline reentries. Holding the engine's leaf mutex across any of
// them is a bug even when it happens to pass the race detector.
var lockBlockers = map[string]bool{
	"BeginProbeBatch": true, "RunProbe": true, "runProbe": true, "probeOnce": true,
	"CompileHello": true, "CompileSerialHello": true,
	"Retry": true, "RetryWithHook": true, "Sleep": true,
	"Evaluate": true, "Predict": true, "Discover": true, "Describe": true,
	"RankSites": true, "assessSite": true,
	"resolveMissing": true, "stagePlan": true, "stageOne": true,
	"commitStage": true, "retryFSOp": true,
	// Real survey/description work and the engine's derived-data layer
	// (store loads, computation, persistence) do filesystem I/O, so none
	// of them may run under a registry shard lock or the store's vfs lock.
	"surveySite": true, "describeBytes": true,
	"fetchDerived": true, "loadDerived": true,
	"keepDerived": true, "deriveCached": true,
	"SaveBundle": true, "LoadBundle": true,
}

type heldLock struct {
	key  string // source text of the locked expression
	site bool   // true when the lock came from Engine.SiteLock
}

func runLockOrder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			scanLockRegions(pass, fb.body.List, collectSiteLockVars(fb.body), nil)
		}
	}
	return nil
}

// collectSiteLockVars records local variables assigned from a SiteLock
// call: v := e.SiteLock(name).
func collectSiteLockVars(body *ast.BlockStmt) map[string]bool {
	vars := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "SiteLock" {
			vars[id.Name] = true
		}
		return true
	})
	return vars
}

// lockCallTarget matches <expr>.Lock() / <expr>.Unlock() and returns the
// receiver expression, whether it is a SiteLock acquisition, and which of
// Lock/Unlock it is.
func lockCallTarget(stmt ast.Stmt, siteVars map[string]bool) (key string, site bool, op string) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false, ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", false, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock" && sel.Sel.Name != "RLock" && sel.Sel.Name != "RUnlock") {
		return "", false, ""
	}
	key = exprText(sel.X)
	op = "Lock"
	if strings.Contains(sel.Sel.Name, "Unlock") {
		op = "Unlock"
	}
	// Direct e.SiteLock(x).Lock() or a variable previously assigned from
	// SiteLock.
	if strings.Contains(key, "SiteLock") {
		return key, true, op
	}
	if id, ok := sel.X.(*ast.Ident); ok && siteVars[id.Name] {
		return key, true, op
	}
	return key, false, op
}

// isMutexKey recognizes the engine-registry-style leaf mutex: a bare "mu"
// or a selector ending in ".mu".
func isMutexKey(key string) bool {
	return key == "mu" || strings.HasSuffix(key, ".mu")
}

// scanLockRegions walks one statement list tracking which locks are held
// at the top level of the list, flagging blocking calls and nested lock
// acquisitions inside held regions. Nested blocks are scanned with the
// currently held set (a branch cannot release a top-level defer-held
// lock); deferred unlocks hold to the end of the function.
func scanLockRegions(pass *Pass, stmts []ast.Stmt, siteVars map[string]bool, held []heldLock) {
	holding := func() *heldLock {
		for i := range held {
			if isMutexKey(held[i].key) {
				return &held[i]
			}
		}
		return nil
	}
	holdingSite := func() *heldLock {
		for i := range held {
			if held[i].site {
				return &held[i]
			}
		}
		return nil
	}
	release := func(key string) {
		for i := range held {
			if held[i].key == key {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}

	for _, stmt := range stmts {
		// Deferred unlocks don't release within this scan; a defer of
		// Unlock right after Lock is the canonical whole-function hold.
		if d, ok := stmt.(*ast.DeferStmt); ok {
			if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok && strings.Contains(sel.Sel.Name, "Unlock") {
				continue
			}
		}
		if key, site, op := lockCallTarget(stmt, siteVars); op != "" {
			if op == "Unlock" {
				release(key)
				continue
			}
			if site {
				if prior := holdingSite(); prior != nil && prior.key != key {
					pass.Reportf(stmt.Pos(), "acquiring site lock %s while holding site lock %s: per-site locks are unordered and this can deadlock concurrent surveys", key, prior.key)
				}
			}
			if prior := holding(); prior != nil && prior.key != key {
				pass.Reportf(stmt.Pos(), "acquiring %s while holding the leaf mutex %s: the engine mutex guards map lookups only", key, prior.key)
			}
			held = append(held, heldLock{key: key, site: site})
			continue
		}
		if mu := holding(); mu != nil {
			flagBlockingCalls(pass, stmt, mu.key)
		}
		for _, nested := range nestedStmtLists(stmt) {
			scanLockRegions(pass, nested, siteVars, append([]heldLock(nil), held...))
		}
	}
}

// flagBlockingCalls reports blocking pipeline calls made directly in stmt
// (not inside nested blocks or function literals, which are scanned with
// their own held-set copies or deferred to runtime).
func flagBlockingCalls(pass *Pass, stmt ast.Stmt, muKey string) {
	// Only inspect the statement's own expressions, not nested statement
	// lists (those are handled by the recursive region scan).
	if len(nestedStmtLists(stmt)) > 0 {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if lockBlockers[name] {
			pass.Reportf(call.Pos(), "%s while holding %s: probe/staging/retry work must not run under the engine's leaf mutex — snapshot state, unlock, then call", name, muKey)
		}
		return true
	})
}
