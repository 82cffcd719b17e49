package httpd

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/origin"
	"repro/internal/web"
)

// startGatewayTLS is startGateway with a fresh ephemeral CA
// terminating https on the listener.
func startGatewayTLS(t *testing.T, n *web.Network, cfg Config) (*Gateway, *CA) {
	t.Helper()
	ca, err := NewCA()
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	cfg.Inner = n
	cfg.TLS = ca
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.MountNetwork(n); err != nil {
		t.Fatalf("MountNetwork: %v", err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g, ca
}

func tlsTestNetwork(t *testing.T, body string) (*web.Network, origin.Origin) {
	t.Helper()
	n := web.NewNetwork()
	o := origin.MustParse("http://app.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(body)
		resp.Header.Set(core.HeaderMaxRing, core.DefaultMaxRing.String())
		return resp
	}))
	return n, o
}

// TestTLSServesOrigins drives a browser-shaped round trip over https
// and checks both the payload and that the transport really is TLS.
func TestTLSServesOrigins(t *testing.T) {
	n, o := tlsTestNetwork(t, "<html><body><p id=x>secure</p></body></html>")
	g, ca := startGatewayTLS(t, n, Config{})
	if !g.TLS() {
		t.Fatal("gateway does not report TLS")
	}
	ct := NewClientTransportTLS(g.Addr(), ca.Pool())
	defer ct.Close()
	if !ct.TLS() {
		t.Fatal("client transport does not report TLS")
	}
	resp, err := ct.RoundTrip(web.NewRequest("GET", o.URL("/")))
	if err != nil {
		t.Fatalf("RoundTrip over TLS: %v", err)
	}
	if resp.Status != 200 || resp.Body == "" {
		t.Fatalf("TLS response = %d %q", resp.Status, resp.Body)
	}

	// A client that does not trust the CA must be refused at the
	// handshake — the gateway's identity is not anonymous.
	plain := NewClientTransportTLS(g.Addr(), nil)
	defer plain.Close()
	if _, err := plain.RoundTrip(web.NewRequest("GET", o.URL("/"))); err == nil {
		t.Fatal("round trip with an empty trust pool succeeded")
	}
}

// TestTLSPerOriginLeafs pins the CA behavior: each SNI name gets its
// own leaf certificate carrying exactly that name, and SNI-less
// probes (admin clients dialing the IP) get the loopback default.
func TestTLSPerOriginLeafs(t *testing.T) {
	n, _ := tlsTestNetwork(t, "<html><body>leaf</body></html>")
	widget := origin.MustParse("http://widget.example")
	n.Register(widget, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body>w</body></html>")
	}))
	g, ca := startGatewayTLS(t, n, Config{})

	for _, host := range []string{"app.example", "widget.example"} {
		conn, err := tls.Dial("tcp", g.Addr(), &tls.Config{RootCAs: ca.Pool(), ServerName: host})
		if err != nil {
			t.Fatalf("handshake for %s: %v", host, err)
		}
		leaf := conn.ConnectionState().PeerCertificates[0]
		conn.Close()
		if len(leaf.DNSNames) != 1 || leaf.DNSNames[0] != host {
			t.Fatalf("leaf for %s carries names %v", host, leaf.DNSNames)
		}
	}

	// No SNI: dialing the raw IP address must still verify (the
	// supervisor's readiness probe does exactly this).
	conn, err := tls.Dial("tcp", g.Addr(), &tls.Config{RootCAs: ca.Pool()})
	if err != nil {
		t.Fatalf("SNI-less handshake: %v", err)
	}
	leaf := conn.ConnectionState().PeerCertificates[0]
	conn.Close()
	if len(leaf.IPAddresses) == 0 {
		t.Fatalf("default leaf has no IP SANs: %+v", leaf.DNSNames)
	}
}

// adminClient is an https client for the gateway's admin endpoints,
// trusting the given CA.
func adminClient(ca *CA) *http.Client {
	return &http.Client{
		Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: ca.Pool()}},
		Timeout:   5 * time.Second,
	}
}

// TestCAFileRoundTrip pins the supervisor hand-off artifact: the CA
// certificate written to disk loads into a pool that verifies the
// gateway's leafs; the private key never travels.
func TestCAFileRoundTrip(t *testing.T) {
	n, o := tlsTestNetwork(t, "<html><body>pem</body></html>")
	g, ca := startGatewayTLS(t, n, Config{})

	path := filepath.Join(t.TempDir(), "ca.pem")
	if err := ca.WriteCertPEM(path); err != nil {
		t.Fatalf("WriteCertPEM: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("empty CA file")
	}
	if strings.Contains(string(data), "PRIVATE KEY") {
		t.Fatal("CA file carries key material")
	}
	pool, err := LoadCAPool(path)
	if err != nil {
		t.Fatalf("LoadCAPool: %v", err)
	}
	ct := NewClientTransportTLS(g.Addr(), pool)
	defer ct.Close()
	if _, err := ct.RoundTrip(web.NewRequest("GET", o.URL("/"))); err != nil {
		t.Fatalf("round trip with file-loaded pool: %v", err)
	}
	if _, err := LoadCAPool(filepath.Join(t.TempDir(), "missing.pem")); err == nil {
		t.Fatal("LoadCAPool on a missing file succeeded")
	}
}

// TestHealthzReadiness pins the liveness/readiness split: a HoldReady
// gateway answers /livez 200 immediately but /healthz stays 503
// "starting" until SetReady — so a supervisor polling readiness can
// never observe a half-mounted gateway.
func TestHealthzReadiness(t *testing.T) {
	n, _ := tlsTestNetwork(t, "<html><body>r</body></html>")
	ca, err := NewCA()
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	g, err := New(Config{Inner: n, TLS: ca, HoldReady: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.MountNetwork(n); err != nil {
		t.Fatalf("MountNetwork: %v", err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer g.Close()

	client := adminClient(ca)
	base := "https://" + g.Addr()

	resp, err := client.Get(base + "/livez")
	if err != nil {
		t.Fatalf("livez: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("livez status = %d, want 200", resp.StatusCode)
	}

	resp, err = client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h healthzJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "starting" || h.Ready {
		t.Fatalf("pre-ready healthz = %d %+v, want 503 starting", resp.StatusCode, h)
	}
	if !h.TLS {
		t.Fatalf("healthz does not report TLS: %+v", h)
	}

	g.SetReady(true)
	resp, err = client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz after SetReady: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || !h.Ready {
		t.Fatalf("post-ready healthz = %d %+v, want 200 ok", resp.StatusCode, h)
	}
}

// TestClientConnReuse pins the keep-alive counters: a request stream
// from one transport reuses pooled connections, and the stats split
// new vs reused accordingly.
func TestClientConnReuse(t *testing.T) {
	n, o := tlsTestNetwork(t, "<html><body>ka</body></html>")
	g, ca := startGatewayTLS(t, n, Config{})
	ct := NewClientTransportTLS(g.Addr(), ca.Pool())
	defer ct.Close()

	const rounds = 6
	for i := 0; i < rounds; i++ {
		if _, err := ct.RoundTrip(web.NewRequest("GET", o.URL(fmt.Sprintf("/?i=%d", i)))); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	st := ct.Stats()
	if st.Requests != rounds {
		t.Fatalf("Requests = %d, want %d", st.Requests, rounds)
	}
	if st.NewConns < 1 {
		t.Fatalf("NewConns = %d, want >= 1", st.NewConns)
	}
	if st.ReusedConns == 0 {
		t.Fatalf("ReusedConns = 0 over %d sequential requests: %+v", rounds, st)
	}
	if st.NewConns+st.ReusedConns != st.Requests {
		t.Fatalf("conn counts don't cover requests: %+v", st)
	}
	if st.ReuseRate() <= 0 {
		t.Fatalf("ReuseRate = %v", st.ReuseRate())
	}
	// Delta math used by the per-phase BENCH rows.
	if d := ct.Stats().Sub(st); d.Requests != 0 || d.NewConns != 0 || d.ReusedConns != 0 {
		t.Fatalf("Sub of identical snapshots = %+v", d)
	}
}

// TestGracefulShutdownTLSInFlight pins the drain contract under TLS:
// requests in flight (including ones sitting in origin queues) when
// Shutdown begins all complete with full responses, and a second
// Shutdown is a no-op.
func TestGracefulShutdownTLSInFlight(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://slow.example")
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		time.Sleep(50 * time.Millisecond)
		return web.HTML("<html><body>done</body></html>")
	}))
	// One worker and a deep queue: most requests are queued, not
	// running, when Shutdown starts — the drain must cover them too.
	g, ca := startGatewayTLS(t, n, Config{DefaultWorkers: 1, DefaultQueueDepth: 32})
	ct := NewClientTransportTLS(g.Addr(), ca.Pool())
	defer ct.Close()

	const inflight = 8
	results := make([]error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ct.RoundTrip(web.NewRequest("GET", o.URL(fmt.Sprintf("/?i=%d", i))))
			if err == nil && (resp.Status != 200 || resp.Body == "") {
				err = fmt.Errorf("truncated response: %d %q", resp.Status, resp.Body)
			}
			results[i] = err
		}(i)
	}
	// Every request reaches the gateway before shutting down: the one
	// worker holds the first in the handler and the rest are queued.
	<-entered
	jobs := g.table.Load().byOrigin[o].jobs
	for deadline := time.Now().Add(10 * time.Second); len(jobs) < inflight-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued at the gateway", len(jobs)+1, inflight)
		}
	}
	openGate()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("request %d dropped during graceful TLS shutdown: %v", i, err)
		}
	}
	// Second Shutdown: no-op, returns promptly and cleanly.
	start := time.Now()
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("second Shutdown took %v", d)
	}
	// And the listener really is closed.
	if _, err := ct.RoundTrip(web.NewRequest("GET", o.URL("/"))); err == nil {
		t.Fatal("round trip succeeded after Shutdown")
	}
}

// holdListener accepts normally, except that the TLS handshake of the
// held'th accepted connection (its first Read) waits until release is
// closed.
type holdListener struct {
	net.Listener
	held     int
	n        int           // accepted so far; Accept runs on one goroutine
	accepted chan struct{} // closed when the held connection is accepted
	release  chan struct{}
}

func (l *holdListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.n++; l.n == l.held {
		close(l.accepted)
		return &heldConn{Conn: c, release: l.release}, nil
	}
	return c, nil
}

// heldConn blocks reads until release is closed.
type heldConn struct {
	net.Conn
	release chan struct{}
}

func (c *heldConn) Read(p []byte) (int, error) {
	<-c.release
	return c.Conn.Read(p)
}

// dialIdleH2 opens a TLS connection negotiating h2 and sends the client
// preface and an empty SETTINGS frame, then sends nothing more: an h2
// client holding an idle pooled connection.
func dialIdleH2(addr string, ca *CA) (*tls.Conn, error) {
	c, err := tls.Dial("tcp", addr, &tls.Config{
		RootCAs:    ca.Pool(),
		ServerName: "app.example",
		NextProtos: []string{"h2"},
	})
	if err != nil {
		return nil, err
	}
	if p := c.ConnectionState().NegotiatedProtocol; p != "h2" {
		c.Close()
		return nil, fmt.Errorf("negotiated %q, want h2", p)
	}
	preface := append([]byte("PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"), 0, 0, 0, h2FrameSettings, 0, 0, 0, 0, 0)
	if _, err := c.Write(preface); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// h2 frame types read by the tests.
const (
	h2FrameSettings = 0x4
	h2FrameGoAway   = 0x7
)

// awaitH2Frame reads h2 frames from c until one of type typ arrives.
func awaitH2Frame(c net.Conn, typ byte, within time.Duration) error {
	if err := c.SetReadDeadline(time.Now().Add(within)); err != nil {
		return err
	}
	var hdr [9]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return err
		}
		n := int64(hdr[0])<<16 | int64(hdr[1])<<8 | int64(hdr[2])
		if _, err := io.CopyN(io.Discard, c, n); err != nil {
			return err
		}
		if hdr[3] == typ {
			return nil
		}
	}
}

// TestShutdownDrainsLateH2Conn pins the graceful-shutdown hang under
// TLS: an h2 connection whose handshake completes after Shutdown has
// sent GOAWAY to every registered connection must still be told to
// drain, so Shutdown returns instead of waiting out its deadline. The
// listener holds the second connection's handshake until the first
// connection has received its GOAWAY, so the late registration happens
// on every run, however loaded the machine.
func TestShutdownDrainsLateH2Conn(t *testing.T) {
	n, _ := tlsTestNetwork(t, "<html><body>ok</body></html>")
	ca, err := NewCA()
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	g, err := New(Config{Inner: n, TLS: ca})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.MountNetwork(n); err != nil {
		t.Fatalf("MountNetwork: %v", err)
	}
	hold := &holdListener{held: 2, accepted: make(chan struct{}), release: make(chan struct{})}
	g.wrapLn = func(ln net.Listener) net.Listener {
		hold.Listener = ln
		return hold
	}
	release := sync.OnceFunc(func() { close(hold.release) })
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		release()
		g.Close()
	})

	early, err := dialIdleH2(g.Addr(), ca)
	if err != nil {
		t.Fatalf("early dial: %v", err)
	}
	defer early.Close()
	// The server's SETTINGS frame follows its registration of the
	// connection for graceful shutdown.
	if err := awaitH2Frame(early, h2FrameSettings, 5*time.Second); err != nil {
		t.Fatalf("early connection never got SETTINGS: %v", err)
	}

	type dialed struct {
		c   *tls.Conn
		err error
	}
	lateCh := make(chan dialed, 1)
	go func() {
		c, err := dialIdleH2(g.Addr(), ca)
		lateCh <- dialed{c, err}
	}()
	<-hold.accepted

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- g.Shutdown(ctx)
	}()
	// The early connection's GOAWAY proves Shutdown has sent its first
	// round; only now may the late handshake complete.
	if err := awaitH2Frame(early, h2FrameGoAway, 5*time.Second); err != nil {
		t.Fatalf("early connection never got GOAWAY: %v", err)
	}
	early.Close()
	release()

	late := <-lateCh
	if late.err != nil {
		t.Fatalf("late dial: %v", late.err)
	}
	defer late.c.Close()
	if err := awaitH2Frame(late.c, h2FrameGoAway, 5*time.Second); err != nil {
		t.Fatalf("late connection never got GOAWAY: %v", err)
	}
	late.c.Close()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
