package mgmt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// --- keystore ---

func TestKeystoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	ks, err := OpenKeystore(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ks.Empty() {
		t.Fatal("fresh keystore not empty")
	}
	k, token, err := ks.Create("acme", RoleOperator)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(token, "drak_") {
		t.Fatalf("token %q lacks the drak_ prefix", token)
	}
	if strings.Contains(k.Hash, token) || k.Hash == token {
		t.Fatal("key record leaks the raw token")
	}
	got, ok := ks.Resolve(token)
	if !ok || got.Tenant != "acme" || got.Role != RoleOperator {
		t.Fatalf("Resolve = %+v, %v", got, ok)
	}
	if _, ok := ks.Resolve("drak_deadbeef"); ok {
		t.Fatal("bogus token resolved")
	}
	if _, ok := ks.Resolve(""); ok {
		t.Fatal("empty token resolved")
	}

	// The raw token must not appear anywhere on disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), token) {
		t.Fatal("keystore file contains the raw token")
	}

	// A reopened store still resolves (hashes persisted).
	ks2, err := OpenKeystore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ks2.Resolve(token); !ok {
		t.Fatal("token lost across reopen")
	}

	// Revocation is durable too.
	if removed, err := ks2.Revoke(k.ID); err != nil || !removed {
		t.Fatalf("Revoke = %v, %v", removed, err)
	}
	if _, ok := ks2.Resolve(token); ok {
		t.Fatal("revoked token still resolves")
	}
	ks3, err := OpenKeystore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ks3.Resolve(token); ok {
		t.Fatal("revoked token resurrected after reopen")
	}
}

func TestKeystoreRejectsInvalidRole(t *testing.T) {
	ks, _ := OpenKeystore("")
	if _, _, err := ks.Create("t", Role("superuser")); err == nil {
		t.Fatal("invalid role accepted")
	}
}

// TestKeystoreRejectsBadTenantNames: names travel through dotted config
// paths and owner sidecar files, so the charset is locked down at
// creation — dots in particular would make "tenants.<name>.weight"
// paths ambiguous.
func TestKeystoreRejectsBadTenantNames(t *testing.T) {
	ks, _ := OpenKeystore("")
	for _, bad := range []string{"", "a.b", "a b", "a\nb", "a/b", strings.Repeat("x", 65)} {
		if _, _, err := ks.Create(bad, RoleReader); err == nil {
			t.Errorf("tenant name %q accepted", bad)
		}
	}
	for _, good := range []string{"acme", "Acme-2", "a_b", "x"} {
		if _, _, err := ks.Create(good, RoleReader); err != nil {
			t.Errorf("tenant name %q rejected: %v", good, err)
		}
	}
}

// --- identity / roles ---

func TestRoleVerbMatrix(t *testing.T) {
	cases := []struct {
		role Role
		verb Verb
		ok   bool
	}{
		{RoleReader, VerbRead, true},
		{RoleReader, VerbConfigRead, true},
		{RoleReader, VerbSubmit, false},
		{RoleReader, VerbAudit, false},
		{RoleOperator, VerbSubmit, true},
		{RoleOperator, VerbCancel, true},
		{RoleOperator, VerbKeys, false},
		{RoleOperator, VerbConfigWrite, false},
		{RoleAdmin, VerbKeys, true},
		{RoleAdmin, VerbConfigWrite, true},
		{RoleAdmin, VerbAudit, true},
		{Role("bogus"), VerbRead, false},
	}
	for _, c := range cases {
		err := Identity{Role: c.role}.Authorize(c.verb)
		if (err == nil) != c.ok {
			t.Errorf("role %s verb %s: err=%v, want ok=%v", c.role, c.verb, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrForbidden) {
			t.Errorf("role %s verb %s: error %v is not ErrForbidden", c.role, c.verb, err)
		}
	}
}

// --- quota keeper ---

func TestQuotaCountsAndRate(t *testing.T) {
	now := time.Unix(1000, 0)
	k := newQuotaKeeper(func() time.Time { return now })

	lim := QuotaLimits{MaxQueued: 2, MaxRunning: 1}
	if err := k.admit("t", lim, 1, 0); err != nil {
		t.Fatalf("under quota refused: %v", err)
	}
	if err := k.admit("t", lim, 2, 0); err == nil || err.Reason != "max_queued" {
		t.Fatalf("queued cap not enforced: %v", err)
	}
	if err := k.admit("t", lim, 0, 1); err == nil || err.Reason != "max_running" {
		t.Fatalf("running cap not enforced: %v", err)
	}

	// Token bucket: burst 2 at 1/s, then refusal with a real RetryAfter,
	// then recovery as the fake clock advances.
	rl := QuotaLimits{SubmitRate: 1, SubmitBurst: 2}
	for i := 0; i < 2; i++ {
		if err := k.admit("r", rl, 0, 0); err != nil {
			t.Fatalf("burst submit %d refused: %v", i, err)
		}
	}
	err := k.admit("r", rl, 0, 0)
	if err == nil || err.Reason != "submit_rate" {
		t.Fatalf("rate not enforced: %v", err)
	}
	if err.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want positive", err.RetryAfter)
	}
	now = now.Add(1500 * time.Millisecond)
	if err := k.admit("r", rl, 0, 0); err != nil {
		t.Fatalf("refilled bucket still refuses: %v", err)
	}
	// Tenants do not share buckets.
	if err := k.admit("other", rl, 0, 0); err != nil {
		t.Fatalf("fresh tenant refused: %v", err)
	}
}

// --- audit log ---

func TestAuditSeqContinuesAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	a, err := OpenAudit(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Append(Entry{Tenant: "t", Verb: "submit", Outcome: "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", a.Seq())
	}
	a.Close()

	// A reopened log continues the numbering — no reset, no overlap.
	b, err := OpenAudit(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	e, err := b.Append(Entry{Tenant: "t", Verb: "cancel", Outcome: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", e.Seq)
	}
	entries, err := b.Query(QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("query returned %d entries, want 4", len(entries))
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d (lost or duplicated)", i, e.Seq)
		}
	}
}

func TestAuditRotationKeepsSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	a, err := OpenAudit(path, 300) // tiny threshold: force rotations
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := a.Append(Entry{Tenant: "t", Verb: "submit", Outcome: "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Rotations() == 0 {
		t.Fatal("no rotation despite tiny threshold")
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("rotated file missing: %v", err)
	}
	// Query stitches rotated + active; within the retained window seqs
	// are consecutive.
	entries, err := a.Query(QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries after rotation")
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Seq != entries[i-1].Seq+1 {
			t.Fatalf("gap in retained window: %d then %d", entries[i-1].Seq, entries[i].Seq)
		}
	}
	if last := entries[len(entries)-1].Seq; last != 20 {
		t.Fatalf("newest seq = %d, want 20", last)
	}
	a.Close()

	// Reopen after rotation continues past the rotated history.
	b, err := OpenAudit(path, 300)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	e, _ := b.Append(Entry{Tenant: "t", Verb: "submit", Outcome: "ok"})
	if e.Seq != 21 {
		t.Fatalf("seq after rotated reopen = %d, want 21", e.Seq)
	}
}

func TestAuditQueryFilters(t *testing.T) {
	a, err := OpenAudit(filepath.Join(t.TempDir(), "a.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Append(Entry{Tenant: "a", Verb: "submit", Outcome: "ok"})
	a.Append(Entry{Tenant: "b", Verb: "submit", Outcome: "ok"})
	a.Append(Entry{Tenant: "a", Verb: "cancel", Outcome: "ok"})
	a.Append(Entry{Tenant: "a", Verb: "submit", Outcome: "ok"})

	if got, _ := a.Query(QueryOpts{Tenant: "a"}); len(got) != 3 {
		t.Fatalf("tenant filter: %d, want 3", len(got))
	}
	if got, _ := a.Query(QueryOpts{Verb: "cancel"}); len(got) != 1 {
		t.Fatalf("verb filter: %d, want 1", len(got))
	}
	if got, _ := a.Query(QueryOpts{Since: 2}); len(got) != 2 {
		t.Fatalf("since filter: %d, want 2", len(got))
	}
	got, _ := a.Query(QueryOpts{Limit: 2})
	if len(got) != 2 || got[1].Seq != 4 {
		t.Fatalf("limit keeps newest: %+v", got)
	}
}

// --- config datastore ---

func TestConfStoreCommitRollbackPersistence(t *testing.T) {
	dir := t.TempDir()
	def := Config{MaxQueued: 100, ClassLimits: map[string]int{"chaos": 1}}
	cs, err := OpenConfStore(dir, def)
	if err != nil {
		t.Fatal(err)
	}
	if v := cs.Running().Version; v != 0 {
		t.Fatalf("boot version = %d", v)
	}

	// Edit → diff → commit = v1.
	if err := cs.Set("max_queued", "2"); err != nil {
		t.Fatal(err)
	}
	if err := cs.Set("tenants.acme.weight", "3"); err != nil {
		t.Fatal(err)
	}
	if diff := cs.Diff(); len(diff) == 0 {
		t.Fatal("dirty candidate shows empty diff")
	}
	if cs.Running().MaxQueued != 100 {
		t.Fatal("candidate edit leaked into running before commit")
	}
	v1, err := cs.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 || v1.MaxQueued != 2 || v1.Tenants["acme"].Weight != 3 {
		t.Fatalf("committed config %+v", v1)
	}
	if len(cs.Diff()) != 0 {
		t.Fatal("diff not empty after commit")
	}

	// Second commit = v2.
	cs.Set("max_queued", "64")
	v2, err := cs.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 || v2.MaxQueued != 64 {
		t.Fatalf("v2 = %+v", v2)
	}

	// A fresh open over the same dir boots the committed running config.
	cs2, err := OpenConfStore(dir, def)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs2.Running(); got.Version != 2 || got.MaxQueued != 64 {
		t.Fatalf("reopened running = %+v", got)
	}

	// Rollback v2 → v1, persisted.
	back, err := cs2.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 || back.MaxQueued != 2 {
		t.Fatalf("rollback = %+v", back)
	}
	cs3, err := OpenConfStore(dir, def)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs3.Running(); got.Version != 1 || got.MaxQueued != 2 {
		t.Fatalf("running after rollback+reopen = %+v", got)
	}

	// Rollback v1 → v0 restores the boot defaults; below that refuses.
	if cfg, err := cs3.Rollback(); err != nil || cfg.Version != 0 || cfg.MaxQueued != 100 {
		t.Fatalf("rollback to defaults = %+v, %v", cfg, err)
	}
	if _, err := cs3.Rollback(); err == nil {
		t.Fatal("rollback below v0 allowed")
	}
}

func TestConfStoreValidation(t *testing.T) {
	cs, _ := OpenConfStore("", Config{})
	cs.SetCandidate(Config{MaxQueued: -1})
	if _, err := cs.Commit(); err == nil {
		t.Fatal("negative max_queued committed")
	}
	if err := cs.Set("max_queued", "abc"); err == nil {
		t.Fatal("non-integer accepted")
	}
	if err := cs.Set("no.such.path", "1"); err == nil {
		t.Fatal("unknown path accepted")
	}
	if err := cs.Set("quota_defaults.submit_rate", "2.5"); err != nil {
		t.Fatalf("valid rate refused: %v", err)
	}
	if err := cs.Set("tenants.a.quota.max_running", "4"); err != nil {
		t.Fatalf("valid tenant quota refused: %v", err)
	}
	if cs.Candidate().QuotaDefaults.SubmitRate != 2.5 {
		t.Fatal("set lost the rate")
	}
}

// TestConfStoreSetDottedTenantNames: tenant paths parse by prefix and
// suffix rather than splitting on every dot, so a tenant named "a.b"
// (from a hand-edited config or a pre-validation keystore) is still
// addressable.
func TestConfStoreSetDottedTenantNames(t *testing.T) {
	cs, _ := OpenConfStore("", Config{})
	if err := cs.Set("tenants.a.b.weight", "3"); err != nil {
		t.Fatalf("dotted tenant weight refused: %v", err)
	}
	if err := cs.Set("tenants.a.b.quota.max_queued", "7"); err != nil {
		t.Fatalf("dotted tenant quota refused: %v", err)
	}
	tc, ok := cs.Candidate().Tenants["a.b"]
	if !ok || tc.Weight != 3 || tc.Quota.MaxQueued != 7 {
		t.Fatalf("tenant \"a.b\" = %+v (present=%v)", tc, ok)
	}
	if err := cs.Set("tenants..weight", "1"); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if err := cs.Set("tenants.a.bogus", "1"); err == nil {
		t.Fatal("unknown tenant field accepted")
	}
}

// --- manager facade ---

func TestManagerResolveAndQuota(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Options{Dir: dir, AllowAnonymous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Anonymous door.
	id, err := m.Resolve("")
	if err != nil || !id.Anonymous || id.Role != RoleAdmin {
		t.Fatalf("anonymous resolve = %+v, %v", id, err)
	}

	// Keyed identity.
	k, token, err := m.Keys().Create("acme", RoleReader)
	if err != nil {
		t.Fatal(err)
	}
	id, err = m.Resolve(token)
	if err != nil || id.Tenant != "acme" || id.Role != RoleReader || id.KeyID != k.ID {
		t.Fatalf("keyed resolve = %+v, %v", id, err)
	}
	if _, err := m.Resolve("drak_bogus"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("bogus key error = %v", err)
	}

	// Quota path: tenant cap from committed config is enforced and
	// surfaces a typed *QuotaError.
	if err := m.Conf().Set("tenants.acme.quota.max_queued", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(Identity{Role: RoleAdmin}); err != nil {
		t.Fatal(err)
	}
	if err := m.AdmitSubmit("acme", 0, 0); err != nil {
		t.Fatalf("under-quota refused: %v", err)
	}
	err = m.AdmitSubmit("acme", 1, 0)
	var qerr *QuotaError
	if !errors.As(err, &qerr) || qerr.Reason != "max_queued" {
		t.Fatalf("over-quota error = %v", err)
	}
	// Unconfigured tenants are unlimited by default.
	if err := m.AdmitSubmit("other", 1000, 1000); err != nil {
		t.Fatalf("default-unlimited tenant refused: %v", err)
	}

	// Weight comes from the committed config.
	m.Conf().Set("tenants.acme.weight", "5")
	m.Commit(Identity{Role: RoleAdmin})
	if w := m.TenantWeight("acme"); w != 5 {
		t.Fatalf("weight = %d", w)
	}
	if w := m.TenantWeight("other"); w != 1 {
		t.Fatalf("default weight = %d", w)
	}

	// The audit log recorded the commits.
	entries, err := m.AuditQuery(QueryOpts{Verb: string(VerbConfigWrite)})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("audited commits = %d, want 2", len(entries))
	}
}

// TestManagerLifecycleAndMetrics covers the wiring the HTTP layer
// depends on: metric family registration (including the gauge
// callbacks), the Apply hook firing on commit/rollback/boot, verb
// authorization counting, and the key listing surface.
func TestManagerLifecycleAndMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	var applied []Config
	m, err := New(Options{
		Dir:            t.TempDir(),
		AllowAnonymous: true,
		Defaults:       Config{MaxQueued: 8},
		Metrics:        reg,
		Apply:          func(cfg Config) { applied = append(applied, cfg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Boot push: the running (v0) config reaches the scheduler hook.
	m.ApplyRunning()
	if len(applied) != 1 || applied[0].Version != 0 || applied[0].MaxQueued != 8 {
		t.Fatalf("ApplyRunning pushed %+v", applied)
	}

	// Commit and rollback both fire the hook with the new running
	// config; rolling back below version 0 refuses and applies nothing.
	if err := m.Conf().Set("max_queued", "3"); err != nil {
		t.Fatal(err)
	}
	admin := Identity{Tenant: "ops", Role: RoleAdmin}
	if cfg, err := m.Commit(admin); err != nil || cfg.Version != 1 {
		t.Fatalf("Commit = %+v, %v", cfg, err)
	}
	if cfg, err := m.Rollback(admin); err != nil || cfg.Version != 0 {
		t.Fatalf("Rollback = %+v, %v", cfg, err)
	}
	if _, err := m.Rollback(admin); err == nil {
		t.Fatal("rollback below version 0 succeeded")
	}
	if len(applied) != 3 || applied[1].MaxQueued != 3 || applied[2].MaxQueued != 8 {
		t.Fatalf("apply sequence %+v", applied)
	}

	// Authorize gates by rank and counts refusals.
	if err := m.Authorize(Identity{Role: RoleReader}, VerbSubmit); !errors.Is(err, ErrForbidden) {
		t.Fatalf("reader submit = %v", err)
	}
	if err := m.Authorize(admin, VerbKeys); err != nil {
		t.Fatalf("admin keys = %v", err)
	}
	if _, err := m.Resolve("drak_nope"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("bogus token = %v", err)
	}

	// A quota refusal formats a usable error string.
	if err := m.Conf().Set("quota_defaults.max_running", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(admin); err != nil {
		t.Fatal(err)
	}
	qerr := m.AdmitSubmit("anyone", 0, 5)
	if qerr == nil || !strings.Contains(qerr.Error(), "max_running") {
		t.Fatalf("quota error = %v", qerr)
	}

	// Key listing is sorted and complete.
	if _, _, err := m.Keys().Create("b", RoleReader); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Keys().Create("a", RoleAdmin); err != nil {
		t.Fatal(err)
	}
	if got := m.Keys().List(); len(got) != 2 {
		t.Fatalf("List = %+v", got)
	}

	// Rendering the registry executes the gauge callbacks (config
	// version, audit size/rotations) and proves every family exports.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mgmt_config_version", "mgmt_audit_bytes", "mgmt_audit_rotations",
		"mgmt_config_commits_total", "mgmt_config_rollbacks_total", "mgmt_auth_failures_total"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("exported metrics missing %s:\n%s", name, buf.String())
		}
	}
	if m.audit.Size() == 0 {
		t.Fatal("audit log empty after audited commits")
	}
}

// Seq returns the last issued sequence number.
func (a *Audit) Seq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}
