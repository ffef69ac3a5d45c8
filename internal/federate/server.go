package federate

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"sweeper/internal/antibody"
	"sweeper/internal/metrics"
)

// Server exposes an antibody store to federation peers. Mount it on any
// listener; sweeperd serves it on the -listen address. Everything a peer
// pushes lands in the store unverified — verification happens on the adopting
// guests, not at the network boundary — but structurally invalid antibodies
// (no ID, no program) are refused outright.
type Server struct {
	store *antibody.Store
	rec   *metrics.FederationRecorder
	mux   *http.ServeMux
	token string
}

// NewServer returns a peer-facing HTTP handler around the store.
func NewServer(store *antibody.Store, rec *metrics.FederationRecorder) *Server {
	s := &Server{store: store, rec: rec, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/antibodies", s.handleAntibodies)
	s.mux.HandleFunc("/v1/health", s.handleHealth)
	return s
}

// SetAuthToken requires every push and poll to present the shared-secret
// token (in the X-Sweeper-Token header); requests without it are rejected
// and counted. Call before serving; an empty token disables the check.
func (s *Server) SetAuthToken(token string) { s.token = token }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleAntibodies(w http.ResponseWriter, r *http.Request) {
	if !authorized(s.rec, s.token, r.Header.Get(AuthHeader)) {
		http.Error(w, "bad or missing auth token", http.StatusUnauthorized)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.handlePull(w, r)
	case http.MethodPost:
		s.handlePush(w, r)
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

// maxPageBytes bounds the antibodies of one pull page, well inside the
// maxBodyBytes a Peer reads of a reply, and small enough that one page is
// served and read far inside a peer's requestTimeout on a loaded host.
const maxPageBytes = maxBodyBytes / 16

// handlePull serves one page of the store from the requested publication
// cursor onward (cursor 0, the default, starts a joining peer's full-store
// replay). The page ends before its antibodies' encoding would pass
// maxPageBytes, but always holds the first one there is; its Next is where it
// stopped, so a peer that follows Next until a page comes back empty has read
// the whole store, however large.
func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	cursor := 0
	if raw := r.URL.Query().Get("since"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad since cursor %q", raw), http.StatusBadRequest)
			return
		}
		cursor = n
	}
	abs, next := s.store.Since(cursor)
	// The wire shape of antibody.PullPage, each antibody encoded once.
	page := struct {
		Next       int               `json:"next"`
		Antibodies []json.RawMessage `json:"antibodies"`
	}{Next: next, Antibodies: make([]json.RawMessage, 0, len(abs))}
	size := 0
	for i, a := range abs {
		enc, err := a.Marshal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if size += len(enc); i > 0 && size > maxPageBytes {
			page.Next -= len(abs) - i
			break
		}
		page.Antibodies = append(page.Antibodies, enc)
	}
	writeJSON(w, &page)
}

// handlePush absorbs a peer's publish push into the store, dropping
// already-known IDs (the dedup that terminates gossip loops).
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	env, err := antibody.DecodePush(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	accepted, err := accept(s.store, s.rec, env.Antibodies, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, &antibody.PushResult{Accepted: accepted})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true, "antibodies": s.store.Len()})
}

// writeJSON encodes v whole before writing any of it, so an encoding error
// is answered with an error status, never appended to a started body.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
