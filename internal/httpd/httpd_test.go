package httpd

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestListenServesAndShutsDown(t *testing.T) {
	s, err := Listen("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("body %q", body)
	}
	if err := s.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr().String() + "/"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

func TestServerHasBoundaryTimeouts(t *testing.T) {
	srv := NewServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: Slowloris holds connections forever")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset")
	}
	if srv.WriteTimeout != 0 {
		t.Error("WriteTimeout must stay unset: pprof profile streams outlive any fixed deadline")
	}
}

// TestSlowlorisConnectionIsDropped opens a raw connection, trickles an
// incomplete header, and requires the server to hang up once the header
// deadline passes — the regression this package exists to prevent. The
// per-test override keeps the test fast; the production value only
// changes the scale.
func TestSlowlorisConnectionIsDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(http.NotFoundHandler())
	srv.ReadHeaderTimeout = 150 * time.Millisecond
	srv.ReadTimeout = 150 * time.Millisecond
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }() //nolint:errcheck
	defer func() { srv.Close(); <-done }()     //nolint:errcheck

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\nX-Slow:"); err != nil {
		t.Fatal(err)
	}
	// Never finish the header. The server must close the connection;
	// without ReadHeaderTimeout this read blocks until the test times
	// out the hard way.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		// A response would also be acceptable (400); what is not
		// acceptable is an open connection past the deadline, which
		// surfaces as the deadline error below.
		return
	} else if strings.Contains(err.Error(), "i/o timeout") {
		t.Fatal("connection still open 5s after an incomplete header: Slowloris not mitigated")
	}
}

func TestShutdownDeadlineForcesClose(t *testing.T) {
	block := make(chan struct{})
	pinned := make(chan struct{})
	var pin sync.Once
	s, err := Listen("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pin.Do(func() { close(pinned) })
		<-block
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	go http.Get("http://" + s.Addr().String() + "/") //nolint:errcheck
	// The request now holds a handler the shutdown must cut.
	<-pinned
	start := time.Now()
	if err := s.Shutdown(300 * time.Millisecond); err != nil {
		t.Fatalf("bounded shutdown returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("shutdown took %v despite its deadline", elapsed)
	}
}
