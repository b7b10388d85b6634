package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// daemonWorkers matches `dac serve`'s default -workers.
const daemonWorkers = 2

// daemon is one dacd instance behind a real loopback listener, built the
// way `dac serve` and `dac bench -serve` build it, over its own empty data
// directory.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	dir  string
	reg  *obs.Registry
	done chan error
}

// startDaemon starts a daemon over a fresh data directory dir (removed
// first if present). reg may be nil to run the daemon untraced.
func startDaemon(dir string, reg *obs.Registry) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := serve.NewServerOpts(dir, serve.ServerOptions{Workers: daemonWorkers, Obs: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		reg:  reg,
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, waits for the serve loop and the job
// workers to exit, and removes the data directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	d.srv.Close()
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

// startDaemons starts a run's daemons over fresh directories: one
// untraced daemon, and in a traced run a traced one ahead of it.
func startDaemons(cfg runConfig) ([]*daemon, error) {
	regs := []*obs.Registry{nil}
	if cfg.trace {
		regs = []*obs.Registry{obs.NewRegistry(), nil}
	}
	var ds []*daemon
	for i, reg := range regs {
		d, err := startDaemon(filepath.Join(cfg.dataDir, fmt.Sprintf("dacd-%d", i)), reg)
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// stopAll stops every daemon in ds and returns the first error.
func stopAll(ds []*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newClient returns an HTTP client holding at most conns connections to
// the daemon: the benchmark's load never uses more connections than it
// has client goroutines.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
}

// doJSON sends body (nil for GET) to url and decodes a 2xx JSON reply into
// out.
func doJSON(c *http.Client, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
