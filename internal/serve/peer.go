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
// Every peer request carries X-Eccsimd-Relay naming the sending node — the
// peering client's transport sets it — and a relayed request is always
// handled locally, which bounds every forwarding chain at one hop and makes
// routing loops impossible.

import (
	"bytes"
	"context"
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

// peerSubmitTimeout bounds one forwarded submission, remote job poll or
// cancel, or proxied result read — queue/metadata operations and cached
// bytes, never computes, so seconds suffice.
const peerSubmitTimeout = 10 * time.Second

// peering is the per-server cluster state: this replica's identity, the
// ring, and the HTTP client used for peer traffic. nil on a single-node
// server, which disables every clustered code path.
type peering struct {
	self cluster.Node
	ring *cluster.Ring
	// hc tags every request as relayed and has no global timeout: proxied
	// sweep watches stream for up to the watch window. Per-call deadlines
	// come from request contexts.
	hc *http.Client
	// clients holds one API client per replica, keyed by node id, for
	// forwarded submissions and remote job polls and cancels.
	clients map[string]*api.Client
}

// relayTransport sets the relay header, naming this replica, on every
// request it carries.
type relayTransport struct{ from string }

func (t relayTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(relayHeader, t.from)
	return http.DefaultTransport.RoundTrip(r)
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
	p := &peering{self: self, ring: ring, clients: map[string]*api.Client{},
		hc: &http.Client{Transport: relayTransport{from: self.ID}}}
	for _, n := range ring.Nodes() {
		p.clients[n.ID] = &api.Client{BaseURL: n.Addr, HTTPClient: p.hc}
	}
	return p, nil
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
	body, _ := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	url := node.Addr + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	var resp *http.Response
	if err == nil {
		req.Header.Set("Content-Type", "application/json") // of the body, if any
		resp, err = s.peers.hc.Do(req)
	}
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Addr+"/v1/results/"+hash, nil)
	if err != nil {
		return false
	}
	resp, err := s.peers.hc.Do(req)
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

// remoteJob makes one job call — (*api.Client).Job to poll, or
// (*api.Client).Cancel to cancel — on the replica running a sweep point,
// and reports the job's status there. ok=false means the replica could not
// answer: dead, draining, or the job record is gone.
func (s *Server) remoteJob(ctx context.Context, nodeID, wireJobID string, call func(*api.Client, context.Context, string) (api.JobStatus, error)) (api.JobStatus, bool) {
	c, found := s.peers.clients[nodeID]
	if !found {
		return api.JobStatus{}, false
	}
	ctx, cancel := context.WithTimeout(ctx, peerSubmitTimeout)
	defer cancel()
	js, err := call(c, ctx, wireJobID)
	return js, err == nil
}
