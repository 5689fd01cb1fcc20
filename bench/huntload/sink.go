package main

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/bench/corpus"
)

// sink is the webhook listener the standing hunts deliver to. It keeps
// when each match row arrived, per watch, so the run can check that every
// injected instance was reported exactly once and how long that took.
type sink struct {
	srv  *http.Server
	addr string

	mu       sync.Mutex
	received map[corpus.Class]map[string][]time.Time // class -> row key -> arrivals
	rows     int
}

func startSink() (*sink, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{addr: l.Addr().String(), received: map[corpus.Class]map[string][]time.Time{}}
	s.srv = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go s.srv.Serve(l) // returns when close shuts the server down
	return s, nil
}

func (s *sink) close() { s.srv.Close() }

func (s *sink) url(class corpus.Class) string { return "http://" + s.addr + "/" + string(class) }

func (s *sink) handle(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	var frame struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.NewDecoder(r.Body).Decode(&frame); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	class := corpus.Class(strings.TrimPrefix(r.URL.Path, "/"))
	s.mu.Lock()
	m := s.received[class]
	if m == nil {
		m = map[string][]time.Time{}
		s.received[class] = m
	}
	for _, row := range frame.Rows {
		k := corpus.RowKey(row)
		m[k] = append(m[k], now)
	}
	s.rows += len(frame.Rows)
	s.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// total is how many match rows have arrived so far.
func (s *sink) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// arrivals returns when each row of a watch arrived.
func (s *sink) arrivals(class corpus.Class) map[string][]time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]time.Time, len(s.received[class]))
	for k, v := range s.received[class] {
		out[k] = v
	}
	return out
}
