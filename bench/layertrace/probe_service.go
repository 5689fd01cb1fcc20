package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"

	"repro"
	"repro/bench/corpus"
	"repro/internal/service"
	"repro/internal/wal"
)

var (
	responseBytes int // over responseRows rows of scan first pages
	responseRows  int
)

func newService(sys *threatraptor.System, log *wal.Log) *service.Server {
	return service.NewWithConfig(sys, service.Config{WAL: log, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}

func init() {
	const paging = "rows_per_s and page_p50_ms on hunt_scan_cold"
	register(layer{
		name: "service",
		defs: []Def{
			def("service.hunt_us.leak8", "us", "lower", "hunt_round_p50_ms on hunt_repeat; less facade.hunt_us.leak8 it is the handler's own share"),
			def("service.hunt_us.scan", "us", "lower", "hunt_round_p50_ms and rows_per_s on hunt_scan_cold; less facade.hunt_us.scan and tbql.*.scan it is the handler's own share"),
			def("service.encode_us_per_row", "us/row", "lower", paging),
			def("service.response_bytes_per_row", "B/row", "lower", paging+" (exact count)"),
			def("service.next_page_us", "us", "lower", paging),
			def("service.ingest_us_per_batch", "us", "lower", "ingest_ack_p50_ms on soc_mixed: the handler's whole time for one open-loop batch under the standing hunts"),
		},
		finish: func(x *run) {
			us := func(name, kind, class string) float64 { return median(x.tr.durs(name, kind, class)) / 1e3 }
			// The handler's whole time. Its own share (request parsing,
			// caches, cursor registry, JSON) is this less the facade's hunt
			// of the same page; the two are reported apart because their
			// difference is smaller than either one's run-to-run noise.
			x.set("service.hunt_us.leak8", us("service.hunt", "service", "leak8"))
			x.set("service.hunt_us.scan", us("service.hunt", "service", "scan"))
			x.set("service.encode_us_per_row", us("service.encode", "service", "")/float64(x.pageRows))
			x.set("service.response_bytes_per_row", float64(responseBytes)/float64(responseRows))
			x.set("service.next_page_us", us("service.next_page", "service", ""))
			x.set("service.ingest_us_per_batch", us("service.ingest", "watch", ""))
		},
	})
}

// serve sends one request through the handler, inside a span.
func (x *run) serve(srv *service.Server, span string, op int, method, target, body string) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	id := x.tr.begin(span, -1, op)
	srv.ServeHTTP(rec, req)
	x.tr.end(id)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s %s answered %d: %s", method, target, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec, nil
}

func (x *run) serviceIngest(srv *service.Server, b corpus.Batch, op int) error {
	rec, err := x.serve(srv, "service.ingest", op, http.MethodPost, "/ingest", string(b.Body))
	if err != nil {
		return err
	}
	var r service.IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		return err
	}
	x.check(r.EventsStored == b.Lines, "POST /ingest stored %d of %d events", r.EventsStored, b.Lines)
	return nil
}

// serviceHunt sends one hunt through the handler and closes the cursor
// it may have registered.
func (x *run) serviceHunt(srv *service.Server, class, text string, limit int) error {
	op := x.tr.op("service", class)
	rec, err := x.serve(srv, "service.hunt", op, http.MethodPost, fmt.Sprintf("/hunt?limit=%d", limit), text)
	if err != nil {
		return err
	}
	var resp service.HuntResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return err
	}
	if class == "scan" {
		responseBytes += rec.Body.Len()
		responseRows += len(resp.Rows)
	}
	if resp.CursorID != "" {
		_, err = x.serve(srv, "service.close_cursor", op, http.MethodDelete, "/hunt/cursor?cursor="+url.QueryEscape(resp.CursorID), "")
	}
	return err
}

// servicePages times further pages of one scan, and the JSON encoding of
// such a page on its own: the handler encodes with encoding/json straight
// into the response, which this repeats on the page it just served.
func (x *run) servicePages(srv *service.Server, text string) error {
	op := x.tr.op("service", "")
	rec, err := x.serve(srv, "service.hunt", op, http.MethodPost, fmt.Sprintf("/hunt?limit=%d", x.pageRows), text)
	if err != nil {
		return err
	}
	var resp service.HuntResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return err
	}
	for i := 0; i < x.iters && resp.CursorID != ""; i++ {
		cursor := resp.CursorID
		rec, err = x.serve(srv, "service.next_page", op, http.MethodGet, fmt.Sprintf("/hunt/next?cursor=%s&limit=%d", url.QueryEscape(cursor), x.pageRows), "")
		if err != nil {
			return err
		}
		resp = service.HuntResponse{}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		x.check(len(resp.Rows) == x.pageRows, "GET /hunt/next returned %d rows, want %d", len(resp.Rows), x.pageRows)
		id := x.tr.begin("service.encode", -1, op)
		err = json.NewEncoder(io.Discard).Encode(&resp)
		x.tr.end(id)
		if err != nil {
			return err
		}
	}
	if resp.CursorID != "" {
		_, err = x.serve(srv, "service.close_cursor", op, http.MethodDelete, "/hunt/cursor?cursor="+url.QueryEscape(resp.CursorID), "")
	}
	return err
}
