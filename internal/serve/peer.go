package serve

// Clustering: when Options.Peers lists more than this replica, the daemon
// joins a static consistent-hash fleet (internal/cluster). Every submission
// is owned by exactly one replica — the ring owner of its content address —
// so identical configs submitted anywhere in the fleet coalesce on one
// node's singleflight and compute once. The router keeps the single-node
// wire contract intact:
//
//   - Non-owned submissions are forwarded server-side to the owner; the
//     client sees the same 200/202 bodies it would single-node, plus an
//     X-Eccsimd-Served-By header naming the replica that answered.
//   - Job and sweep ids gain a "<node>:" prefix so reads and cancels can be
//     routed straight to the node that holds the record, from any replica.
//   - A result read that misses locally is proxied server-side: the hash
//     owner is asked first, then every other peer in ring order, and the
//     first 200 streams back. Any HTTP client works against any replica,
//     and a dead owner costs the client nothing.
//   - Every failure degrades toward local execution: an unreachable,
//     saturated or draining owner means the receiving replica computes
//     the submission or sweep point itself. Determinism makes that safe —
//     the same config yields byte-identical results on any replica, so the
//     worst case is duplicated work, never divergence.
//
// Forwarded requests carry X-Eccsimd-Relay naming the forwarding node; a
// relayed request is always handled locally, which bounds every forwarding
// chain at one hop and makes routing loops impossible.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"eccparity/internal/cluster"
	"eccparity/pkg/api"
)

// Relay headers. relayHeader marks a peer-forwarded request (value: the
// forwarding node's id) and pins handling to the receiving node; servedBy
// tells the client which replica actually answered.
const (
	relayHeader    = "X-Eccsimd-Relay"
	servedByHeader = "X-Eccsimd-Served-By"
)

// peerSubmitTimeout bounds one forwarded submission or remote job poll —
// both are queue/metadata operations, never computes, so seconds suffice.
const peerSubmitTimeout = 10 * time.Second

// peering is the per-server cluster state: this replica's identity, the
// ring, and the HTTP client used for peer traffic. nil on a single-node
// server, which disables every clustered code path.
type peering struct {
	self cluster.Node
	ring *cluster.Ring
	// hc has no global timeout: proxied sweep watches stream for up to the
	// watch window. Per-call deadlines come from request contexts.
	hc *http.Client
}

func newPeering(nodeID string, peers []cluster.Node, vnodes int) (*peering, error) {
	ring, err := cluster.New(peers, vnodes)
	if err != nil {
		return nil, err
	}
	self, ok := ring.Lookup(nodeID)
	if !ok {
		return nil, fmt.Errorf("serve: node id %q is not in the peer list", nodeID)
	}
	return &peering{self: self, ring: ring, hc: &http.Client{}}, nil
}

// clustered reports whether this server is part of a fleet.
func (s *Server) clustered() bool { return s.peers != nil }

// owner returns the ring owner of a content address and whether it is this
// replica. Single-node servers own everything.
func (s *Server) owner(key string) (cluster.Node, bool) {
	if !s.clustered() {
		return cluster.Node{}, true
	}
	n := s.peers.ring.Owner(key)
	return n, n.ID == s.peers.self.ID
}

// wireID namespaces a local job/sweep id for the cluster wire ("a1:job-3")
// so ids stay unambiguous fleet-wide. Single-node ids are unchanged — the
// PR-7 wire format byte for byte.
func (s *Server) wireID(local string) string {
	if !s.clustered() {
		return local
	}
	return s.peers.self.ID + ":" + local
}

// routeID splits a wire id into its owning node and local id. An unprefixed
// id (or any id on a single-node server) routes locally, so clients from
// the pre-cluster era keep working against the node they talk to.
func (s *Server) routeID(wire string) (node, local string, remote bool) {
	if !s.clustered() {
		return "", wire, false
	}
	node, local, ok := strings.Cut(wire, ":")
	if !ok {
		return "", wire, false
	}
	return node, local, node != s.peers.self.ID
}

// relayed reports whether r was forwarded by a peer — such requests must be
// handled locally (one-hop bound).
func relayed(r *http.Request) bool { return r.Header.Get(relayHeader) != "" }

// peerDo sends one request to a peer with the relay header set, so the
// receiver handles it locally instead of forwarding again.
func (p *peering) peerDo(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(relayHeader, p.self.ID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return p.hc.Do(req)
}

// proxyToNode forwards the incoming request as-is (path, query, body) to a
// named peer and streams the response back, flushing per chunk so proxied
// NDJSON watch streams stay live. Unknown or unreachable peers answer 502 —
// the record genuinely lives there, so nothing local can satisfy the read.
func (s *Server) proxyToNode(w http.ResponseWriter, r *http.Request, nodeID string) {
	node, ok := s.peers.ring.Lookup(nodeID)
	if !ok {
		httpError(w, http.StatusNotFound, api.CodeNotFound, "unknown replica %q in id %q", nodeID, r.URL.Path)
		return
	}
	var body []byte
	if r.Body != nil {
		body, _ = io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	}
	url := node.Addr + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	resp, err := s.peers.peerDo(r.Context(), r.Method, url, body)
	if err != nil {
		httpError(w, http.StatusBadGateway, api.CodeInternal, "replica %s unreachable: %v", nodeID, err)
		return
	}
	defer resp.Body.Close()
	s.metrics.peerProxiedReads.Add(1)
	w.Header().Set(servedByHeader, nodeID)
	copyResponse(w, resp)
}

// copyResponse relays status, content type and body, flushing after every
// chunk so streamed bodies (sweep watches) pass through unbuffered.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// proxyResultRead serves a result the local tiers missed from a peer. It
// asks the hash owner first — the replica most likely to hold the bytes —
// then every other peer in ring order, each relay-tagged so it answers from
// its own tiers. The first 200 streams back; false means no peer had it.
func (s *Server) proxyResultRead(w http.ResponseWriter, r *http.Request, hash string) bool {
	owner, _ := s.owner(hash)
	for i, n := range append([]cluster.Node{owner}, s.peers.ring.Nodes()...) {
		if n.ID == s.peers.self.ID || (i > 0 && n.ID == owner.ID) {
			continue
		}
		if s.proxyResultFrom(w, r, n, hash) {
			return true
		}
	}
	return false
}

// proxyResultFrom asks one peer for hash and streams a 200 back.
func (s *Server) proxyResultFrom(w http.ResponseWriter, r *http.Request, n cluster.Node, hash string) bool {
	ctx, cancel := context.WithTimeout(r.Context(), peerSubmitTimeout)
	defer cancel()
	resp, err := s.peers.peerDo(ctx, http.MethodGet, n.Addr+"/v1/results/"+hash, nil)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	s.metrics.peerProxiedReads.Add(1)
	w.Header().Set(servedByHeader, n.ID)
	copyResponse(w, resp)
	return true
}

// remoteSubmit forwards one submission or sweep point to its owner as a
// relay-tagged single submission and reports what came back: a cache hit,
// an accepted remote job, or (on any transport/queue trouble, a full or
// draining owner included) ok=false so the caller runs it locally.
func (s *Server) remoteSubmit(ctx context.Context, owner cluster.Node, req api.SubmitRequest) (resp api.SubmitResponse, ok bool) {
	body, err := json.Marshal(req)
	if err != nil {
		return api.SubmitResponse{}, false
	}
	ctx, cancel := context.WithTimeout(ctx, peerSubmitTimeout)
	defer cancel()
	hr, err := s.peers.peerDo(ctx, http.MethodPost, owner.Addr+"/v1/experiments", body)
	if err != nil {
		s.metrics.peerForwardFallback.Add(1)
		return api.SubmitResponse{}, false
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK && hr.StatusCode != http.StatusAccepted {
		s.metrics.peerForwardFallback.Add(1)
		return api.SubmitResponse{}, false
	}
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		s.metrics.peerForwardFallback.Add(1)
		return api.SubmitResponse{}, false
	}
	s.metrics.peerForwarded.Add(1)
	return resp, true
}

// remoteJobStatus polls a remote job by its wire id on the node that owns
// it. ok=false means the owner could not answer — dead, draining, or the
// job record is gone — and the caller should adopt the point.
func (s *Server) remoteJobStatus(ctx context.Context, nodeID, wireJobID string) (api.JobStatus, bool) {
	node, found := s.peers.ring.Lookup(nodeID)
	if !found {
		return api.JobStatus{}, false
	}
	ctx, cancel := context.WithTimeout(ctx, peerSubmitTimeout)
	defer cancel()
	resp, err := s.peers.peerDo(ctx, http.MethodGet, node.Addr+"/v1/jobs/"+wireJobID, nil)
	if err != nil {
		return api.JobStatus{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.JobStatus{}, false
	}
	var js api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		return api.JobStatus{}, false
	}
	return js, true
}

// remoteCancel best-effort cancels a remote job (sweep rollback and sweep
// cancel paths). Failures are ignored: the owner may already be gone, and a
// dead node's jobs die with it.
func (s *Server) remoteCancel(ctx context.Context, nodeID, wireJobID string) {
	node, found := s.peers.ring.Lookup(nodeID)
	if !found {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, peerSubmitTimeout)
	defer cancel()
	resp, err := s.peers.peerDo(ctx, http.MethodDelete, node.Addr+"/v1/jobs/"+wireJobID, nil)
	if err != nil {
		return
	}
	resp.Body.Close()
}
