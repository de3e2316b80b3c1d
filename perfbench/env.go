package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/serve"
	"dataspread/internal/serve/client"
)

// The flush and cache policy is dsserver's default: a durable file-backed
// database with group commit (WAL fsync on every commit batch), async
// recalc, a 2048-block cell cache and the default 1024-page buffer pool.
var (
	dbOpts     = rdbms.Options{GroupCommit: true}
	engineOpts = core.Options{CacheBlocks: 2048, AsyncRecalc: true}
	// twinOpts opens the twin engines of a traced run. They recalc
	// inline, so the traced run can call their store directly without
	// racing a background scheduler.
	twinOpts = core.Options{CacheBlocks: 2048}
)

// env is one run's context: its temporary directory inside the checkout,
// its seed, and the tracer of a traced run (nil otherwise).
type env struct {
	dir  string
	seed int64
	tr   *tracer
}

func newEnv(dir string, seed int64, trace bool) *env {
	ev := &env{dir: dir, seed: seed}
	if trace {
		ev.tr = newTracer()
	}
	return ev
}

func (ev *env) close() {
	if ev.tr != nil {
		ev.tr.close()
	}
}

// setups runs build n times, each into a fresh database, and reports the
// median time as setup_s. It returns the database of the last build and,
// in a traced run, keeps the one before it as the twin; the others are
// closed and deleted.
func (ev *env) setups(n int, r *result, build func(db *rdbms.DB) error) (*rdbms.DB, *rdbms.DB, error) {
	var times []time.Duration
	var last, twin *rdbms.DB
	for i := 0; i < n; i++ {
		dir := filepath.Join(ev.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		db, err := rdbms.OpenFile(filepath.Join(dir, "sheet.dsdb"), dbOpts)
		if err == nil {
			err = build(db)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start))
		if last != nil {
			if ev.tr != nil && i == n-1 {
				twin = last
			} else if err := last.Close(); err != nil {
				return nil, nil, err
			}
		}
		last = db
	}
	r.values["setup_s"] = quantile(times, 0.5).Seconds()
	r.samples["setup_s"] = n
	return last, twin, nil
}

// dbBytesPerCell checkpoints db and reports data-file plus live WAL bytes
// per non-blank cell.
func dbBytesPerCell(db *rdbms.DB, cells int, r *result) error {
	if err := db.Checkpoint(); err != nil {
		return err
	}
	files, err := filepath.Glob(db.Path() + "*")
	if err != nil {
		return err
	}
	var total int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return err
		}
		if st.Mode().IsRegular() {
			total += st.Size()
		}
	}
	r.set("db_bytes_per_cell", float64(total)/float64(cells))
	return nil
}

// heapMB forces a GC and reports the live Go heap. The second GC empties
// the sync.Pool victim caches the first one leaves behind.
func heapMB(r *result) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("heap_mb", float64(m.HeapAlloc)/(1<<20))
}

// server is an in-process dsserver on a loopback port.
type server struct {
	srv  *serve.Server
	ln   *countingListener
	done chan error
}

func startServer(db *rdbms.DB) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(db, engineOpts), ln: &countingListener{Listener: ln}, done: make(chan error, 1)}
	s.srv.Listen(s.ln)
	go func() { s.done <- s.srv.Serve(s.ln) }()
	return s, nil
}

// dial opens one session on the server and opens the named sheet.
func (s *server) dial(name string) (*client.Client, error) {
	c, err := client.Dial(s.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	if err := c.Open(name); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// stop closes the server (saving its sheets) and waits for it to end.
func (s *server) stop() error {
	err := s.srv.Close()
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// countingListener counts the bytes every accepted connection carries.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// waitConverged polls the server until the named sheet has no pending
// formula cells.
func waitConverged(c *client.Client, name string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			return err
		}
		pending := uint64(0)
		for _, sh := range st.Sheets {
			if sh.Name == name {
				pending = sh.Pending
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sheet %q still has %d pending cells after 60s", name, pending)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
