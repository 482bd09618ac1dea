package polardraw

import (
	"net"

	"polardraw/internal/session"
	"polardraw/internal/shardrpc"
	"polardraw/internal/telemetry"
)

// ShardServer hosts one shard of a multi-process PolarDraw tier: a
// session manager behind the shardrpc wire protocol, ready to be
// driven by a Client opened with WithShardServers. It accepts the same
// options as Open (topology options are ignored; decode options set
// the shard's serving defaults, which per-session OpenOptions may
// override over the wire).
type ShardServer struct {
	srv *shardrpc.Server
	tel *telemetry.Registry
}

// NewShardServer builds a shard server. Call Serve or ListenAndServe
// to accept connections.
func NewShardServer(opts ...Option) *ShardServer {
	cfg := defaultClientConfig()
	for _, o := range opts {
		o.applyClient(&cfg)
	}
	tel := telemetry.NewRegistry()
	sess := cfg.sessionConfig()
	sess.Telemetry = tel
	if sess.MaxSessions <= 0 {
		// A shard server is a long-lived multi-tenant process: default
		// well above the library's 64 so LRU eviction is a policy
		// choice, not a surprise.
		sess.MaxSessions = DefaultServerMaxSessions
	}
	s := &ShardServer{srv: shardrpc.NewServer(shardrpc.ServerConfig{
		Session:     sess,
		EventBuffer: cfg.eventBuffer,
		Telemetry:   tel,
	}), tel: tel}
	m := s.srv.Manager()
	tel.GaugeFunc("polardraw_sessions_live", func() float64 {
		return float64(m.Len())
	})
	return s
}

// Telemetry exposes the shard's metric registry: every decode,
// session, and wire metric the shard records, snapshot by clients via
// the telemetry RPC and exposable as Prometheus text with
// ServeMetrics.
func (s *ShardServer) Telemetry() *TelemetryRegistry { return s.tel }

// ServeMetrics starts a background HTTP listener on addr serving the
// shard's telemetry as Prometheus text exposition at /metrics. It
// returns the bound address (useful with a ":0" port) and a closer.
func (s *ShardServer) ServeMetrics(addr string) (*MetricsServer, error) {
	return telemetry.ListenAndServe(addr, s.tel.Snapshot)
}

// DefaultServerMaxSessions is NewShardServer's live-session cap when
// WithMaxSessions is not given.
const DefaultServerMaxSessions = 1024

// Serve accepts and serves shardrpc connections on ln until Close. It
// returns nil after Close, or the first accept error otherwise.
func (s *ShardServer) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// ListenAndServe listens on addr (host:port) and serves until Close.
func (s *ShardServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.srv.Serve(ln)
}

// Manager exposes the hosted session manager (telemetry,
// subscriptions on the serving side).
func (s *ShardServer) Manager() *session.Manager { return s.srv.Manager() }

// EventsDropped counts events shed at full subscriber queues.
func (s *ShardServer) EventsDropped() uint64 { return s.srv.EventsDropped() }

// Close stops accepting, tears down connections, and finalizes every
// session.
func (s *ShardServer) Close() { s.srv.Close() }

// Abort drops the listener and every connection without finalizing
// sessions — the shard dies as if the process was killed mid-stroke.
// Crash-recovery test hook (see shardrpc.Server.Abort).
func (s *ShardServer) Abort() { s.srv.Abort() }
