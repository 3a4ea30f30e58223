package server

// Management-plane HTTP walls: authentication and role gates, the
// per-tenant quota refusal contract (429 + Retry-After + cause
// "tenant_quota", distinct from the global "busy" and outranked by
// drain's 503), live config commit/rollback, the audit endpoint, and
// job-list paging/filtering.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/mgmt"
	"repro/internal/store"
)

// mgmtServer boots a manager + management plane + server, all wired the
// way cmd/drad wires them: the plane first so the scheduler's quota and
// weight hooks are bound before recovery can dispatch, Apply late-bound
// to ApplyLimits.
func mgmtServer(t *testing.T, allowAnon bool, mopt jobs.Options) (*httptest.Server, *jobs.Manager, *mgmt.Manager) {
	t.Helper()
	if mopt.Store == nil {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mopt.Store = st
	}
	var mgr *jobs.Manager
	mg, err := mgmt.New(mgmt.Options{
		Dir:            t.TempDir(),
		AllowAnonymous: allowAnon,
		Defaults:       mgmt.Config{MaxQueued: mopt.MaxQueued, ClassLimits: mopt.ClassLimits},
		Metrics:        metrics.NewRegistry(),
		Apply: func(cfg mgmt.Config) {
			mgr.ApplyLimits(cfg.MaxQueued, cfg.ClassLimits)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mopt.Quota = mg.AdmitSubmit
	mopt.TenantWeight = mg.TenantWeight
	mgr, err = jobs.NewManager(mopt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	// Registered after the TempDirs, so it runs before they are removed:
	// no runner can still be writing into them.
	t.Cleanup(func() { mgr.Drain(context.Background()) })
	srv, err := New(Options{Manager: mgr, Metrics: metrics.NewRegistry(), Mgmt: mg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, mgr, mg
}

// doAuth issues a request with an optional bearer token.
func doAuth(t *testing.T, method, url, token, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// mintKey creates a key via the API using admin credentials.
func mintKey(t *testing.T, base, adminToken, tenant, role string) string {
	t.Helper()
	resp, body := doAuth(t, http.MethodPost, base+"/v1/keys", adminToken,
		fmt.Sprintf(`{"tenant": %q, "role": %q}`, tenant, role))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("key create: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Token
}

// TestAuthRequiredAndRoleGates: with the anonymous door closed every
// route wants a key, and each role stops exactly where its rank ends.
func TestAuthRequiredAndRoleGates(t *testing.T) {
	ts, _, mg := mgmtServer(t, false, jobs.Options{
		MaxQueued: 16,
		Runners:   map[string]jobs.Runner{config.KindReliability: instantRunner(nil)},
	})

	// No credentials → 401 on the job API.
	resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/jobs", "", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous list with door closed: %d", resp.StatusCode)
	}
	resp, _ = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "", specBody(1))
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous submit with door closed: %d", resp.StatusCode)
	}
	// Garbage token → 401 too.
	resp, _ = doAuth(t, http.MethodGet, ts.URL+"/v1/jobs", "drak_bogus", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bogus token: %d", resp.StatusCode)
	}

	// Bootstrap an admin key directly on the keystore (what drad's
	// bootstrap path does), then mint the rest over HTTP.
	_, adminTok, err := mg.Keys().Create("ops", mgmt.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	readerTok := mintKey(t, ts.URL, adminTok, "acme", "reader")
	operatorTok := mintKey(t, ts.URL, adminTok, "acme", "operator")

	// Reader: can list, cannot submit, cannot read audit.
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/jobs", readerTok, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reader list: %d", resp.StatusCode)
	}
	if resp, _ := doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", readerTok, specBody(2)); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("reader submit: %d, want 403", resp.StatusCode)
	}
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/audit", readerTok, ""); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("reader audit: %d, want 403", resp.StatusCode)
	}
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/config", readerTok, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reader config show: %d, want 200", resp.StatusCode)
	}

	// Operator: can submit and cancel, cannot manage keys or commit.
	resp, body := doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", operatorTok, specBody(3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("operator submit: %d %s", resp.StatusCode, body)
	}
	if resp, _ := doAuth(t, http.MethodPost, ts.URL+"/v1/keys", operatorTok, `{"tenant":"x"}`); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("operator key create: %d, want 403", resp.StatusCode)
	}
	if resp, _ := doAuth(t, http.MethodPost, ts.URL+"/v1/config/commit", operatorTok, "{}"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("operator commit: %d, want 403", resp.StatusCode)
	}

	// Admin: full surface.
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/audit", adminTok, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin audit: %d", resp.StatusCode)
	}
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/keys", adminTok, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("admin key list: %d", resp.StatusCode)
	}
}

// TestTenantQuota429Distinct is the satellite regression wall: a
// tenant-quota refusal is a 429 with Retry-After and cause
// "tenant_quota"; the global queue-full refusal is a 429 with cause
// "busy"; and a draining server answers 503 even to an over-quota
// tenant (drain wins).
func TestTenantQuota429Distinct(t *testing.T) {
	release := make(chan struct{})
	blocker := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	}
	ts, mgr, mg := mgmtServer(t, true, jobs.Options{
		Workers:   1,
		MaxQueued: 3,
		Runners:   map[string]jobs.Runner{config.KindReliability: blocker},
	})
	defer close(release)

	// Tenant "capped" may hold at most 1 queued job.
	_, adminTok, err := mg.Keys().Create("ops", mgmt.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	cappedTok := mintKey(t, ts.URL, adminTok, "capped", "operator")
	if err := mg.Conf().Set("tenants.capped.quota.max_queued", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Commit(mgmt.Identity{Role: mgmt.RoleAdmin}); err != nil {
		t.Fatal(err)
	}

	// First submit occupies the worker; the tenant's queued count is 0
	// again once it is claimed, so queue a second that stays queued.
	resp, body := doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", cappedTok, specBody(10))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", resp.StatusCode, body)
	}
	waitForRunning(t, mgr)
	resp, body = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", cappedTok, specBody(11))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", resp.StatusCode, body)
	}

	// Third submit: over the tenant cap → 429 tenant_quota.
	resp, body = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", cappedTok, specBody(12))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("tenant-quota 429 missing Retry-After")
	}
	var apiBody struct {
		Error string `json:"error"`
		Cause string `json:"cause"`
	}
	if err := json.Unmarshal(body, &apiBody); err != nil {
		t.Fatal(err)
	}
	if apiBody.Cause != "tenant_quota" {
		t.Fatalf("cause = %q, want tenant_quota (%s)", apiBody.Cause, body)
	}

	// The anonymous tenant is not capped, so it can fill the global
	// queue; the refusal there is the distinct "busy" cause.
	if resp, body := doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "", specBody(13)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("anon submit: %d %s", resp.StatusCode, body)
	}
	resp, body = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "", specBody(14))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("global-full submit: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("busy 429 missing Retry-After")
	}
	apiBody.Cause = ""
	json.Unmarshal(body, &apiBody)
	if apiBody.Cause != "busy" {
		t.Fatalf("cause = %q, want busy (%s)", apiBody.Cause, body)
	}

	// Drain outranks both: the same over-quota tenant now gets 503.
	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	go mgr.Drain(dctx)
	waitFor(t, func() bool { return mgr.Draining() })
	resp, _ = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", cappedTok, specBody(15))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", resp.StatusCode)
	}
}

// waitForRunning waits until the manager has claimed at least one job.
func waitForRunning(t *testing.T, mgr *jobs.Manager) {
	t.Helper()
	waitFor(t, func() bool { return mgr.Running() > 0 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestConfigCommitLiveApply: a committed candidate retunes the running
// scheduler without a restart, and rollback restores the old behavior.
func TestConfigCommitLiveApply(t *testing.T) {
	release := make(chan struct{})
	blocker := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	}
	ts, mgr, _ := mgmtServer(t, true, jobs.Options{
		Workers:   1,
		MaxQueued: 8,
		Runners:   map[string]jobs.Runner{config.KindReliability: blocker},
	})
	defer close(release)

	// Tighten max_queued (admitted-but-unfinished jobs) to 2 via the
	// HTTP config surface.
	resp, body := doAuth(t, http.MethodPost, ts.URL+"/v1/config/set", "", `{"path":"max_queued","value":"2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("config set: %d %s", resp.StatusCode, body)
	}
	resp, body = doAuth(t, http.MethodGet, ts.URL+"/v1/config/diff", "", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("max_queued")) {
		t.Fatalf("diff: %d %s", resp.StatusCode, body)
	}
	resp, body = doAuth(t, http.MethodPost, ts.URL+"/v1/config/commit", "", "{}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: %d %s", resp.StatusCode, body)
	}
	var cfg mgmt.Config
	json.Unmarshal(body, &cfg)
	if cfg.Version != 1 || cfg.MaxQueued != 2 {
		t.Fatalf("committed config %+v", cfg)
	}

	// The live scheduler honors the new bound: one running plus one
	// queued job exhausts it, and the next submit refuses with busy —
	// no restart involved.
	resp, body = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "", specBody(100))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit (runs): %d %s", resp.StatusCode, body)
	}
	waitForRunning(t, mgr)
	resp, body = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "", specBody(101))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit (queues): %d %s", resp.StatusCode, body)
	}
	resp, body = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "", specBody(102))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over tightened bound: %d %s, want 429", resp.StatusCode, body)
	}

	// Rollback → version 0, original bound restored.
	resp, body = doAuth(t, http.MethodPost, ts.URL+"/v1/config/rollback", "", "{}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: %d %s", resp.StatusCode, body)
	}
	cfg = mgmt.Config{}
	json.Unmarshal(body, &cfg)
	if cfg.Version != 0 || cfg.MaxQueued != 8 {
		t.Fatalf("rollback config %+v", cfg)
	}
	resp, body = doAuth(t, http.MethodGet, ts.URL+"/v1/config", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("config show: %d", resp.StatusCode)
	}
	cfg = mgmt.Config{}
	json.Unmarshal(body, &cfg)
	if cfg.MaxQueued != 8 {
		t.Fatalf("running config after rollback %+v", cfg)
	}

	// Behavioral restoration: the submit that was refused under the
	// tightened bound is admitted again.
	resp, body = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "", specBody(102))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after rollback: %d %s", resp.StatusCode, body)
	}
}

// TestAuditEndpointRecordsActions: submits and cancels land in the
// audit log with tenant attribution, queryable over HTTP.
func TestAuditEndpointRecordsActions(t *testing.T) {
	ts, mgr, mg := mgmtServer(t, true, jobs.Options{
		MaxQueued: 16,
		Runners:   map[string]jobs.Runner{config.KindReliability: instantRunner(nil)},
	})
	_, adminTok, err := mg.Keys().Create("ops", mgmt.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	acmeTok := mintKey(t, ts.URL, adminTok, "acme", "operator")

	resp, body := doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", acmeTok, specBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	json.Unmarshal(body, &snap)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := waitJob(ctx, mgr, snap.ID); err != nil {
		t.Fatal(err)
	}

	resp, body = doAuth(t, http.MethodGet, ts.URL+"/v1/audit?tenant=acme&verb=submit", adminTok, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit query: %d %s", resp.StatusCode, body)
	}
	var entries []mgmt.Entry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Job != snap.ID || entries[0].Outcome != "ok" {
		t.Fatalf("audit entries %+v", entries)
	}

	// The key mint is audited too (verb keys, by the admin's tenant).
	resp, body = doAuth(t, http.MethodGet, ts.URL+"/v1/audit?verb=keys", adminTok, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit keys query: %d", resp.StatusCode)
	}
	entries = nil
	json.Unmarshal(body, &entries)
	if len(entries) != 1 || entries[0].Tenant != "ops" {
		t.Fatalf("keys audit %+v", entries)
	}
}

// TestListPagingAndTenantScope: ?limit/?since/?tenant behave, and a
// non-admin key is always scoped to its own tenant.
func TestListPagingAndTenantScope(t *testing.T) {
	ts, mgr, mg := mgmtServer(t, true, jobs.Options{
		MaxQueued: 32,
		Runners:   map[string]jobs.Runner{config.KindReliability: instantRunner(nil)},
	})
	_, adminTok, err := mg.Keys().Create("ops", mgmt.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	acmeTok := mintKey(t, ts.URL, adminTok, "acme", "operator")
	otherTok := mintKey(t, ts.URL, adminTok, "other", "operator")

	ids := map[string][]string{}
	for i, tok := range []string{acmeTok, acmeTok, otherTok} {
		resp, body := doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", tok, specBody(uint64(20+i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var snap jobs.Snapshot
		json.Unmarshal(body, &snap)
		ids[snap.Tenant] = append(ids[snap.Tenant], snap.ID)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := waitJob(ctx, mgr, snap.ID); err != nil {
			t.Fatal(err)
		}
		cancel()
	}

	decode := func(body []byte) []jobs.Snapshot {
		var out []jobs.Snapshot
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Admin sees everything; limit caps newest-first.
	_, body := doAuth(t, http.MethodGet, ts.URL+"/v1/jobs", adminTok, "")
	if got := decode(body); len(got) != 3 {
		t.Fatalf("admin list = %d jobs", len(got))
	}
	_, body = doAuth(t, http.MethodGet, ts.URL+"/v1/jobs?limit=2", adminTok, "")
	if got := decode(body); len(got) != 2 {
		t.Fatalf("limit=2 returned %d", len(got))
	}
	// Tenant filter for admin.
	_, body = doAuth(t, http.MethodGet, ts.URL+"/v1/jobs?tenant=other", adminTok, "")
	got := decode(body)
	if len(got) != 1 || got[0].Tenant != "other" {
		t.Fatalf("tenant filter %+v", got)
	}
	// Non-admin scoping: acme asking for ?tenant=other still only sees
	// its own jobs.
	_, body = doAuth(t, http.MethodGet, ts.URL+"/v1/jobs?tenant=other", acmeTok, "")
	got = decode(body)
	if len(got) != 2 {
		t.Fatalf("scoped list = %d jobs, want acme's 2", len(got))
	}
	for _, s := range got {
		if s.Tenant != "acme" {
			t.Fatalf("tenant scope leak: %+v", s)
		}
	}
	// since excludes everything older than now.
	_, body = doAuth(t, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs?since=%d", ts.URL, time.Now().Add(time.Minute).UnixMilli()), adminTok, "")
	if got := decode(body); len(got) != 0 {
		t.Fatalf("future since returned %d jobs", len(got))
	}
}

// TestCrossTenantJobIsolation: job IDs are content-addressed and thus
// guessable, so the by-ID endpoints (status, result, events, cancel)
// must enforce tenant ownership, not just the verb — another tenant's
// key, operator or reader, gets a 404 (not a 403, which would leak
// existence), while the owner and an admin key retain full access. A
// tenant whose submit attached to a pending job keeps its read access
// across a drain and restart.
func TestCrossTenantJobIsolation(t *testing.T) {
	stateDir, storeDir := t.TempDir(), t.TempDir()
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seed 78's job holds until gate closes, so a second submit of its
	// spec attaches to the live job. Seed 79's holds until pendingGate
	// closes, which happens only after the drain, so it is still
	// pending when the manager restarts.
	gate, pendingGate := make(chan struct{}), make(chan struct{})
	runner := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		hold := map[uint64]chan struct{}{78: gate, 79: pendingGate}[spec.MC.Seed]
		if hold != nil {
			select {
			case <-hold:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return json.RawMessage(`{"answer": 42}`), nil
	}
	// One execution slot: while seed 78 runs, seed 79 waits in the queue.
	opt := jobs.Options{
		MaxQueued: 16,
		Workers:   1,
		Store:     st,
		Dir:       stateDir,
		Runners:   map[string]jobs.Runner{config.KindReliability: runner},
	}
	ts, mgr, mg := mgmtServer(t, true, opt)
	_, adminTok, err := mg.Keys().Create("ops", mgmt.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	acmeTok := mintKey(t, ts.URL, adminTok, "acme", "operator")
	otherTok := mintKey(t, ts.URL, adminTok, "other", "operator")
	otherReaderTok := mintKey(t, ts.URL, adminTok, "other", "reader")

	// acme submits and finishes a job; its ID is now derivable by anyone
	// holding the same spec.
	resp, body := doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", acmeTok, specBody(77))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	json.Unmarshal(body, &snap)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := waitJob(ctx, mgr, snap.ID); err != nil {
		t.Fatal(err)
	}

	// Another tenant's keys bounce off every by-ID route with 404 —
	// except the reader's DELETE, which the verb gate already refuses
	// with 403 before ownership is consulted (role refusals leak no
	// per-job information).
	for _, tok := range []string{otherTok, otherReaderTok} {
		for _, ep := range []struct{ method, path string }{
			{http.MethodGet, "/v1/jobs/" + snap.ID},
			{http.MethodGet, "/v1/jobs/" + snap.ID + "/result"},
			{http.MethodGet, "/v1/jobs/" + snap.ID + "/events"},
		} {
			resp, body := doAuth(t, ep.method, ts.URL+ep.path, tok, "")
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s %s as foreign tenant: %d %s, want 404", ep.method, ep.path, resp.StatusCode, body)
			}
		}
	}
	if resp, body := doAuth(t, http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, otherTok, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign operator cancel: %d %s, want 404", resp.StatusCode, body)
	}
	if resp, _ := doAuth(t, http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, otherReaderTok, ""); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("foreign reader cancel: %d, want 403 from the verb gate", resp.StatusCode)
	}

	// The owner reads its own status and result; admin reads everything.
	for _, tok := range []string{acmeTok, adminTok} {
		if resp, body := doAuth(t, http.MethodGet, ts.URL+"/v1/jobs/"+snap.ID, tok, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("owner/admin status: %d %s", resp.StatusCode, body)
		}
		if resp, body := doAuth(t, http.MethodGet, ts.URL+"/v1/jobs/"+snap.ID+"/result", tok, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("owner/admin result: %d %s", resp.StatusCode, body)
		}
	}
	// Cancel of a terminal job is a no-op 200 — but only for the owner
	// or an admin.
	if resp, body := doAuth(t, http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, acmeTok, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner cancel: %d %s", resp.StatusCode, body)
	}

	// reads checks status and result of a job as one key: 200 and a body
	// that names acme only to acme and admins, or 404.
	reads := func(base, jobID, tok string, want int) {
		t.Helper()
		for _, path := range []string{"/v1/jobs/" + jobID, "/v1/jobs/" + jobID + "/result"} {
			resp, body := doAuth(t, http.MethodGet, base+path, tok, "")
			if resp.StatusCode != want {
				t.Fatalf("GET %s: %d %s, want %d", path, resp.StatusCode, body, want)
			}
			if tok != acmeTok && tok != adminTok && strings.Contains(string(body), "acme") {
				t.Fatalf("GET %s leaks the owner's name: %s", path, body)
			}
		}
	}
	submit := func(base, tok string, seed uint64, want int) jobs.Snapshot {
		t.Helper()
		resp, body := doAuth(t, http.MethodPost, base+"/v1/jobs", tok, specBody(seed))
		if resp.StatusCode != want {
			t.Fatalf("submit %d: %d %s, want %d", seed, resp.StatusCode, body, want)
		}
		if tok != acmeTok && strings.Contains(string(body), "acme") {
			t.Fatalf("submit %d leaks the owner's name: %s", seed, body)
		}
		var snap jobs.Snapshot
		json.Unmarshal(body, &snap)
		return snap
	}
	thirdTok := mintKey(t, ts.URL, adminTok, "third", "operator")

	// A second tenant whose submit attaches to the live job of the same
	// spec reads it too; a tenant that never submitted it does not, and
	// only the first submitter may cancel it.
	live := submit(ts.URL, acmeTok, 78, http.StatusAccepted)
	submit(ts.URL, otherTok, 78, http.StatusAccepted)
	if resp, body := doAuth(t, http.MethodDelete, ts.URL+"/v1/jobs/"+live.ID, otherTok, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("co-submitter cancel: %d %s, want 404", resp.StatusCode, body)
	}
	// The same for a job still in the queue, which is what a restart
	// recovers.
	pending := submit(ts.URL, acmeTok, 79, http.StatusAccepted)
	if attached := submit(ts.URL, otherTok, 79, http.StatusAccepted); attached.State != jobs.StateQueued {
		t.Fatalf("second submit of seed 79 found the job %s, want queued", attached.State)
	}
	close(gate)
	if _, err := waitJob(ctx, mgr, live.ID); err != nil {
		t.Fatal(err)
	}
	reads(ts.URL, live.ID, acmeTok, http.StatusOK)
	reads(ts.URL, live.ID, otherTok, http.StatusOK)
	reads(ts.URL, live.ID, thirdTok, http.StatusNotFound)
	resp, body = doAuth(t, http.MethodGet, ts.URL+"/v1/jobs", otherTok, "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), live.ID) || strings.Contains(string(body), snap.ID) {
		t.Fatalf("co-submitter list: %d %s", resp.StatusCode, body)
	}

	// Restart over the same state dir: the records of settled jobs are
	// gone, the results are not. A keyed resubmit is a cache hit that
	// every tenant which submitted the spec can read, and no other
	// tenant can. The pending job comes back with all its submitters.
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	close(pendingGate)
	if opt.Store, err = store.Open(storeDir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	opt.Quota, opt.TenantWeight = mg.AdmitSubmit, mg.TenantWeight
	mgr2, err := jobs.NewManager(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr2.Drain(context.Background()) })
	srv2, err := New(Options{Manager: mgr2, Metrics: metrics.NewRegistry(), Mgmt: mg})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	if final, err := waitJob(ctx, mgr2, pending.ID); err != nil || final.State != jobs.StateDone {
		t.Fatalf("recovered job: %+v, %v", final, err)
	}
	reads(ts2.URL, pending.ID, acmeTok, http.StatusOK)
	reads(ts2.URL, pending.ID, otherTok, http.StatusOK)
	reads(ts2.URL, pending.ID, thirdTok, http.StatusNotFound)
	if resp, body := doAuth(t, http.MethodDelete, ts2.URL+"/v1/jobs/"+pending.ID, otherTok, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("recovered co-submitter cancel: %d %s, want 404", resp.StatusCode, body)
	}
	if resp, body := doAuth(t, http.MethodDelete, ts2.URL+"/v1/jobs/"+pending.ID, acmeTok, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered owner cancel: %d %s, want 200", resp.StatusCode, body)
	}

	reads(ts2.URL, snap.ID, acmeTok, http.StatusNotFound)
	submit(ts2.URL, acmeTok, 77, http.StatusOK)
	reads(ts2.URL, snap.ID, acmeTok, http.StatusOK)
	reads(ts2.URL, snap.ID, otherTok, http.StatusNotFound)
	submit(ts2.URL, acmeTok, 78, http.StatusOK)
	submit(ts2.URL, otherTok, 78, http.StatusOK)
	for _, tok := range []string{acmeTok, otherTok, adminTok} {
		reads(ts2.URL, live.ID, tok, http.StatusOK)
	}
	reads(ts2.URL, live.ID, thirdTok, http.StatusNotFound)
}

// TestMgmtHandlerSurface sweeps the remaining management endpoints:
// key revocation, the candidate document (GET and full PUT), bad
// config-set paths, audit query parameter validation, and RFC3339
// since values on the job list.
func TestMgmtHandlerSurface(t *testing.T) {
	ts, _, mg := mgmtServer(t, true, jobs.Options{
		MaxQueued: 8,
		Runners:   map[string]jobs.Runner{config.KindReliability: instantRunner(nil)},
	})
	_, adminTok, err := mg.Keys().Create("ops", mgmt.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}

	// Revoke: a minted key stops resolving; revoking again is a 404.
	resp, body := doAuth(t, http.MethodPost, ts.URL+"/v1/keys", adminTok, `{"tenant":"temp","role":"reader"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("key create: %d %s", resp.StatusCode, body)
	}
	var created struct {
		Key   mgmt.Key `json:"key"`
		Token string   `json:"token"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if resp, _ := doAuth(t, http.MethodDelete, ts.URL+"/v1/keys/"+created.Key.ID, adminTok, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("revoke: %d", resp.StatusCode)
	}
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/jobs", created.Token, ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("revoked key still resolves: %d", resp.StatusCode)
	}
	if resp, _ := doAuth(t, http.MethodDelete, ts.URL+"/v1/keys/"+created.Key.ID, adminTok, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double revoke: %d, want 404", resp.StatusCode)
	}

	// Candidate: PUT replaces the whole document, GET reads it back,
	// commit makes it running. Unknown fields are rejected.
	resp, body = doAuth(t, http.MethodPut, ts.URL+"/v1/config/candidate", adminTok, `{"max_queued": 5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("candidate put: %d %s", resp.StatusCode, body)
	}
	resp, body = doAuth(t, http.MethodGet, ts.URL+"/v1/config/candidate", adminTok, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("candidate get: %d", resp.StatusCode)
	}
	var cand mgmt.Config
	if err := json.Unmarshal(body, &cand); err != nil {
		t.Fatal(err)
	}
	if cand.MaxQueued != 5 {
		t.Fatalf("candidate %+v", cand)
	}
	if resp, _ := doAuth(t, http.MethodPut, ts.URL+"/v1/config/candidate", adminTok, `{"nope": 1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown candidate field accepted: %d", resp.StatusCode)
	}

	// Config set: an unknown path is a 400, not a silent no-op.
	if resp, _ := doAuth(t, http.MethodPost, ts.URL+"/v1/config/set", adminTok, `{"path":"bogus.path","value":"1"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus config path: %d, want 400", resp.StatusCode)
	}

	// Audit query parameter validation.
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/audit?since=notanumber", adminTok, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad audit since: %d, want 400", resp.StatusCode)
	}
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/audit?limit=2", adminTok, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("audit limit: %d", resp.StatusCode)
	}

	// Job list since accepts RFC3339 too; garbage is a 400.
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/jobs?since="+url.QueryEscape(time.Now().Format(time.RFC3339)), adminTok, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("RFC3339 since: %d", resp.StatusCode)
	}
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/jobs?since=garbage", adminTok, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage since: %d, want 400", resp.StatusCode)
	}
}
