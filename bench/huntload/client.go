package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// client speaks the daemon's HTTP API. It holds at most two connections:
// the benchmark never runs more than two generator goroutines.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     2,
				MaxIdleConnsPerHost: 2,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// statusError is a non-2xx answer. Shed marks the statuses that
// invalidate a run rather than merely failing an operation: the daemon
// refused or broke, so the load reaching it was not the load intended.
type statusError struct {
	Code int
	Body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Code, e.Body) }
func (e *statusError) Shed() bool    { return e.Code == http.StatusTooManyRequests || e.Code >= 500 }

// do sends one request and decodes a JSON answer into out.
func (c *client) do(method, path string, contentType string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{resp.StatusCode, strings.TrimSpace(string(msg))}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ingest posts one batch and returns how many events the daemon stored.
func (c *client) ingest(body []byte) (int, error) {
	var r struct {
		EventsStored int `json:"events_stored"`
	}
	err := c.do(http.MethodPost, "/ingest", "text/plain", body, &r)
	return r.EventsStored, err
}

// page is the part of a hunt response the benchmark reads.
type page struct {
	Rows     [][]string `json:"rows"`
	CursorID string     `json:"cursor_id"`
	Stats    struct {
		PlanCacheHits   int `json:"plan_cache_hits"`
		PlanCacheMisses int `json:"plan_cache_misses"`
	} `json:"stats"`
}

func (c *client) hunt(tbql string, limit int) (*page, error) {
	var p page
	err := c.do(http.MethodPost, "/hunt?limit="+strconv.Itoa(limit), "text/plain", []byte(tbql), &p)
	return &p, err
}

func (c *client) next(cursor string, limit int) (*page, error) {
	var p page
	err := c.do(http.MethodGet, "/hunt/next?cursor="+url.QueryEscape(cursor)+"&limit="+strconv.Itoa(limit), "", nil, &p)
	return &p, err
}

func (c *client) closeCursor(cursor string) error {
	return c.do(http.MethodDelete, "/hunt/cursor?cursor="+url.QueryEscape(cursor), "", nil, nil)
}

// watch registers a standing hunt that posts its matches to webhook.
func (c *client) watch(tbql, webhook string) error {
	body, err := json.Marshal(map[string]string{"query": tbql, "webhook": webhook})
	if err != nil {
		return err
	}
	return c.do(http.MethodPost, "/watch", "application/json", body, nil)
}

// daemonStats is the part of GET /stats the benchmark reads.
type daemonStats struct {
	Events           int   `json:"events"`
	Hunts            int64 `json:"hunts"`
	Ingests          int64 `json:"ingests"`
	PlanCacheMisses  int64 `json:"plan_cache_misses"`
	QueryCacheMisses int64 `json:"query_cache_misses"`
	SegmentFlushes   int64 `json:"segment_flushes"`
	WatchesActive    int   `json:"watches_active"`
	WebhookFailures  int64 `json:"watch_webhook_failures"`
}

func (c *client) stats() (daemonStats, error) {
	var s daemonStats
	err := c.do(http.MethodGet, "/stats", "", nil, &s)
	return s, err
}
