package service

import "repro/internal/obs"

// initObs builds the server's metric registry. Counter-style families
// read the existing atomic metrics struct through scrape-time closures,
// so the submit/finish paths keep their single bookkeeping site; gauge
// closures may take s.mu (the scrape path acquires registry locks before
// s.mu, and no code path holds s.mu while touching the registry, so the
// order is acyclic).
func (s *Server) initObs() {
	r := obs.NewRegistry()
	s.reg = r

	r.CounterFunc("nocd_jobs_submitted_total", "Submissions accepted by the service (all outcomes).",
		func() float64 { return float64(s.m.submitted.Load()) })
	r.CounterFunc("nocd_jobs_rejected_total", "Submissions refused: full queue (HTTP 429) or shutdown.",
		func() float64 { return float64(s.m.rejected.Load()) })
	r.CounterFunc("nocd_jobs_completed_total", "Jobs that reached the succeeded state.",
		func() float64 { return float64(s.m.completed.Load()) })
	r.CounterFunc("nocd_jobs_failed_total", "Jobs that reached the failed state.",
		func() float64 { return float64(s.m.failed.Load()) })
	r.CounterFunc("nocd_jobs_canceled_total", "Jobs that reached the canceled state.",
		func() float64 { return float64(s.m.canceled.Load()) })
	r.CounterFunc("nocd_computes_total", "Searches actually executed on the worker pool.",
		func() float64 { return float64(s.m.compute.Load()) })
	r.CounterFunc("nocd_cache_hits_total", "Submissions served without a fresh compute (result cache or in-flight dedup).",
		func() float64 { return float64(s.m.cacheHits.Load()) })
	r.CounterFunc("nocd_cache_misses_total", "Submissions that required a fresh compute.",
		func() float64 { return float64(s.m.cacheMisses.Load()) })
	r.CounterFunc("nocd_dedup_total", "Submissions attached as followers to an identical in-flight computation.",
		func() float64 { return float64(s.m.dedups.Load()) })
	r.CounterFunc("nocd_job_panics_total", "Computes that panicked; each failed its job and the daemon kept serving.",
		func() float64 { return float64(s.m.panics.Load()) })

	r.GaugeFunc("nocd_cache_entries", "Entries in the result LRU cache.",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("nocd_queue_depth", "Jobs submitted to the compute pool but not yet started.",
		func() float64 { return float64(s.pool.Queued()) })
	r.GaugeFunc("nocd_jobs_running", "Jobs currently computing on the pool.",
		func() float64 { return float64(s.m.running.Load()) })
	r.GaugeFunc("nocd_jobs_inflight", "Distinct instance keys currently being computed (dedup leaders).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.inflight))
		})
	s.sseSubs = r.Gauge("nocd_sse_subscribers", "Open /v1/jobs/{id}/events streams.")

	s.httpRequests = r.CounterVec("nocd_http_requests_total", "HTTP requests by response status code.", "code")
	s.jobDuration = r.HistogramVec("nocd_job_duration_seconds",
		"Wall-clock latency of computed jobs (start to finish, server clock seam) by model strategy.",
		"model", obs.DefaultDurationBuckets)
	s.searchEvals = r.CounterVec("nocd_search_evaluations_total", "Objective evaluations reported by search progress snapshots, by engine.", "engine")
	s.searchExact = r.CounterVec("nocd_search_exact_evals_total", "Exact (simulator) pricings within the reported evaluations, by engine.", "engine")
	s.searchSkips = r.CounterVec("nocd_search_bound_skips_total", "Candidates disposed of by the certified tier-A lower bound without an exact pricing, by engine.", "engine")
	s.searchSurrogate = r.CounterVec("nocd_search_surrogate_evals_total", "Candidates priced on the calibrated tier-B surrogate, by engine.", "engine")
	s.searchAccepted = r.CounterVec("nocd_search_accepted_total", "Accepted search moves, by engine.", "engine")
	s.searchRejected = r.CounterVec("nocd_search_rejected_total", "Rejected search moves, by engine.", "engine")
	s.searchRestarts = r.CounterVec("nocd_search_restarts_total", "Search restarts/shards observed, by engine.", "engine")
	s.evals = r.Counter("nocd_evaluations_total",
		"Objective pricings counted on the evaluator hot paths (CWM full and delta costs, CDCM simulations).")
}

// Registry exposes the server's metric registry, e.g. for embedding the
// daemon and scraping in-process.
func (s *Server) Registry() *obs.Registry { return s.reg }
