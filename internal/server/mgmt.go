package server

// Management-plane HTTP surface: authentication/authorization helpers
// applied to every API handler, and the key/audit/config endpoints.
// All of it is conditional on Options.Mgmt — a server built without a
// management plane behaves exactly like the pre-tenancy service
// (anonymous admin, no audit, no extra routes), which is what keeps the
// existing e2e walls green unmodified.

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/mgmt"
)

// bearerToken extracts the request's API token: "Authorization: Bearer
// <token>" wins, "X-API-Key: <token>" is the fallback.
func bearerToken(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// authorize resolves the caller and gates the verb, writing the 401/403
// itself on refusal. A server without a management plane admits
// everyone as the anonymous default-tenant admin.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request, v mgmt.Verb) (mgmt.Identity, bool) {
	if s.opt.Mgmt == nil {
		return mgmt.Identity{Role: mgmt.RoleAdmin, Anonymous: true}, true
	}
	id, err := s.opt.Mgmt.Resolve(bearerToken(r))
	if err != nil {
		w.Header().Set("WWW-Authenticate", `Bearer realm="drad"`)
		writeError(w, http.StatusUnauthorized, "%v", err)
		return mgmt.Identity{}, false
	}
	if err := s.opt.Mgmt.Authorize(id, v); err != nil {
		writeError(w, http.StatusForbidden, "%v", err)
		return mgmt.Identity{}, false
	}
	return id, true
}

// callerOwns reports whether the caller may act on a job owned by
// tenant: admin keys (and the anonymous admin) reach every job, other
// roles only their own tenant's.
func callerOwns(id mgmt.Identity, tenant string) bool {
	return id.Role == mgmt.RoleAdmin || id.Tenant == tenant
}

// callerSubmitted reports whether the caller may read a job: admins
// read every job, other roles the jobs their tenant submitted, first or
// through a later submit of the same spec.
func (s *Server) callerSubmitted(id mgmt.Identity, snap jobs.Snapshot) bool {
	return callerOwns(id, snap.Tenant) || s.mgr.SubmittedBy(snap.ID, id.Tenant)
}

// forCaller hides another tenant's name from a non-admin caller: a job
// the caller reads but did not submit first shows no tenant.
func forCaller(id mgmt.Identity, snap jobs.Snapshot) jobs.Snapshot {
	if !callerOwns(id, snap.Tenant) {
		snap.Tenant = ""
	}
	return snap
}

// audit records a management-plane action when a plane is attached.
func (s *Server) audit(id mgmt.Identity, verb mgmt.Verb, job, outcome, detail string) {
	if s.opt.Mgmt != nil {
		s.opt.Mgmt.Record(id, verb, job, outcome, detail)
	}
}

// --- key management ---

type createKeyRequest struct {
	Tenant string    `json:"tenant"`
	Role   mgmt.Role `json:"role"`
}

type createKeyResponse struct {
	Key   mgmt.Key `json:"key"`
	Token string   `json:"token"` // shown exactly once
}

func (s *Server) keyCreate(w http.ResponseWriter, r *http.Request) {
	id, ok := s.authorize(w, r, mgmt.VerbKeys)
	if !ok {
		return
	}
	var req createKeyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	if req.Role == "" {
		req.Role = mgmt.RoleOperator
	}
	k, token, err := s.opt.Mgmt.Keys().Create(req.Tenant, req.Role)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		s.audit(id, mgmt.VerbKeys, "", "error", err.Error())
		return
	}
	s.audit(id, mgmt.VerbKeys, "", "ok", "created "+k.ID+" for tenant "+k.Tenant)
	writeJSON(w, http.StatusCreated, createKeyResponse{Key: k, Token: token})
}

func (s *Server) keyList(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r, mgmt.VerbKeys); !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.opt.Mgmt.Keys().List())
}

func (s *Server) keyRevoke(w http.ResponseWriter, r *http.Request) {
	id, ok := s.authorize(w, r, mgmt.VerbKeys)
	if !ok {
		return
	}
	keyID := r.PathValue("id")
	removed, err := s.opt.Mgmt.Keys().Revoke(keyID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !removed {
		writeError(w, http.StatusNotFound, "no key %q", keyID)
		return
	}
	s.audit(id, mgmt.VerbKeys, "", "ok", "revoked "+keyID)
	writeJSON(w, http.StatusOK, map[string]string{"revoked": keyID})
}

// --- audit log ---

func (s *Server) auditQuery(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r, mgmt.VerbAudit); !ok {
		return
	}
	q := r.URL.Query()
	opts := mgmt.QueryOpts{Tenant: q.Get("tenant"), Verb: q.Get("verb")}
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "since wants a sequence number: %v", err)
			return
		}
		opts.Since = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit wants a non-negative integer")
			return
		}
		opts.Limit = n
	}
	entries, err := s.opt.Mgmt.AuditQuery(opts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if entries == nil {
		entries = []mgmt.Entry{}
	}
	writeJSON(w, http.StatusOK, entries)
}

// --- config datastore ---

func (s *Server) configRunning(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r, mgmt.VerbConfigRead); !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.opt.Mgmt.Conf().Running())
}

func (s *Server) configCandidate(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r, mgmt.VerbConfigRead); !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.opt.Mgmt.Conf().Candidate())
}

func (s *Server) configPutCandidate(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r, mgmt.VerbConfigWrite); !ok {
		return
	}
	var cfg mgmt.Config
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		writeError(w, http.StatusBadRequest, "parsing config: %v", err)
		return
	}
	s.opt.Mgmt.Conf().SetCandidate(cfg)
	writeJSON(w, http.StatusOK, s.opt.Mgmt.Conf().Candidate())
}

type configSetRequest struct {
	Path  string `json:"path"`
	Value string `json:"value"`
}

func (s *Server) configSet(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r, mgmt.VerbConfigWrite); !ok {
		return
	}
	var req configSetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	if err := s.opt.Mgmt.Conf().Set(req.Path, req.Value); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.opt.Mgmt.Conf().Candidate())
}

func (s *Server) configDiff(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r, mgmt.VerbConfigRead); !ok {
		return
	}
	diff := s.opt.Mgmt.Conf().Diff()
	if diff == nil {
		diff = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"changes": diff})
}

func (s *Server) configCommit(w http.ResponseWriter, r *http.Request) {
	id, ok := s.authorize(w, r, mgmt.VerbConfigWrite)
	if !ok {
		return
	}
	cfg, err := s.opt.Mgmt.Commit(id)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, cfg)
}

func (s *Server) configRollback(w http.ResponseWriter, r *http.Request) {
	id, ok := s.authorize(w, r, mgmt.VerbConfigWrite)
	if !ok {
		return
	}
	cfg, err := s.opt.Mgmt.Rollback(id)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, cfg)
}

// parseSince accepts RFC3339 or unix milliseconds.
func parseSince(v string) (time.Time, error) {
	if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
		return time.UnixMilli(ms), nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, errors.New("since wants RFC3339 or unix milliseconds")
	}
	return t, nil
}
