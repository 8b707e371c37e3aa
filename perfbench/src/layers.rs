//! The traced run's layer pass: times the public calls of each layer, from
//! the benchmark's own code, on a workload's inputs, and turns the spans
//! into the per-layer metrics.

use crate::shopper::{Shopper, Walk};
use crate::stats::median;
use crate::storefront::{events_body, open_body, start_server};
use crate::trace::Tracer;
use crate::{gg_config, metric, session_config, slg_config, Metric};
use revmax_algorithms::{plan, plan_residual};
use revmax_core::{
    json, residual_advance, residual_of_validated, shift_strategy, wire, AdoptionEvent,
    EngineSnapshot, IncrementalRevenue, Instance, ResidualDelta,
};
use revmax_http::testkit::Client;
use revmax_http::{Api, Request, RequestHead, Response};
use revmax_serve::{PlanService, PlanSession, Registry, RegistryConfig};
use std::sync::Arc;
use std::time::Instant;

/// Engine construction and one G-Greedy and one SL-Greedy plan of `inst`.
pub fn planner(tracer: &mut Tracer, inst: &Instance, bound: f64) {
    tracer.next_op();
    let engine = tracer.time("revenue.engine_build", || IncrementalRevenue::new(inst));
    drop(engine);
    let runs = [
        (
            "algorithms.gg_plan",
            "algorithms.gg_evals",
            "algorithms.gg_ns_per_eval",
            "quality.gg_bound_pct",
            gg_config(),
        ),
        (
            "algorithms.slg_plan",
            "algorithms.slg_evals",
            "algorithms.slg_ns_per_eval",
            "quality.slg_bound_pct",
            slg_config(),
        ),
    ];
    for (span, evals_name, per_eval_name, share_name, config) in runs {
        tracer.next_op();
        tracer.enter(span);
        let outcome = plan(inst, &config);
        let ms = tracer.exit();
        let evals = outcome.marginal_evaluations as f64;
        tracer.count(evals_name, evals);
        tracer.count(per_eval_name, ms * 1e6 / evals);
        tracer.count(share_name, 100.0 * outcome.revenue / bound);
    }
}

/// What the layer pass did.
pub struct PassReport {
    /// Per unit, its traced wall time ÷ its untraced wall time.
    pub ratios: Vec<f64>,
    /// Units that failed a check, traced or untraced.
    pub failed: u64,
}

impl PassReport {
    /// Runs `unit` untraced, then traced, and records the ratio of the two
    /// wall times.
    fn paired(
        &mut self,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
        mut unit: impl FnMut(&mut Tracer, &mut Vec<String>),
    ) {
        let before = problems.len();
        let started = Instant::now();
        unit(&mut Tracer::off(), problems);
        let plain = started.elapsed().as_secs_f64();
        let started = Instant::now();
        unit(tracer, problems);
        self.ratios.push(started.elapsed().as_secs_f64() / plain);
        if problems.len() > before {
            self.failed += 1;
        }
    }
}

/// The layer pass: the planner on `planned` (an instance and its revenue
/// bound), then sessions, service, wire, registry and HTTP on each of
/// `insts` with its shopper, in cycles, for at least one cycle and until
/// `seconds` have gone by. Each unit runs untraced and then traced on the
/// same inputs; the ratio of the two wall times is what the tracing behind
/// the per-layer metrics costs.
pub fn pass(
    tracer: &mut Tracer,
    planned: (&Instance, f64),
    insts: &[Instance],
    shoppers: &[Shopper],
    seconds: f64,
    problems: &mut Vec<String>,
) -> PassReport {
    let service = Arc::new(PlanService::new(1));
    let registry = Registry::new(Arc::new(PlanService::new(1)), RegistryConfig::default());
    let api = Api::new(Arc::new(Registry::new(
        Arc::new(PlanService::new(1)),
        RegistryConfig::default(),
    )));
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect to the loopback server");
    let mut report = PassReport {
        ratios: Vec::new(),
        failed: 0,
    };
    crate::repeat_for(seconds, || {
        report.paired(tracer, problems, |t, _| {
            t.enter("pass.planner");
            planner(t, planned.0, planned.1);
            t.exit();
        });
        for (inst, shopper) in insts.iter().zip(shoppers) {
            report.paired(tracer, problems, |t, problems| {
                t.enter("pass.serving");
                sessions(t, inst, *shopper, &service, problems);
                front_end(t, inst, *shopper, &registry, &api, &mut client, problems);
                t.exit();
            });
        }
    });
    drop(client);
    server.shutdown();
    report
}

/// A session walk three ways on the same events: the session inline, the
/// same session attached to a service, and its two inner steps (residual
/// construction and warm replan) called directly.
fn sessions(
    tracer: &mut Tracer,
    inst: &Instance,
    shopper: Shopper,
    service: &Arc<PlanService>,
    problems: &mut Vec<String>,
) {
    let config = session_config();
    let mut inline = PlanSession::new(inst.clone(), config);
    let mut attached = PlanSession::new(inst.clone(), config);
    attached.attach(service);
    // The direct calls keep their own warm pool, seeded as a session's is.
    let snapshot = EngineSnapshot::new();
    let _ = plan_residual(
        inst,
        &config,
        Some(&ResidualDelta::initial(snapshot.clone())),
    );
    let mut walk = Walk::new(inst, shopper);
    let mut history: Vec<AdoptionEvent> = Vec::new();
    let mut prev: Option<Instance> = None;
    for day in 1..=inst.horizon() {
        let events = walk.day_events(inline.planned_suffix().as_slice(), day);
        history.extend_from_slice(&events);
        if day == inst.horizon() {
            // The last advance replans nothing: no layer to split.
            let results = [inline.advance(&events), attached.advance(&events)];
            for e in results.into_iter().filter_map(Result::err) {
                problems.push(format!("layer pass, last advance: {e}"));
            }
            break;
        }
        tracer.next_op();
        let delta = ResidualDelta::new(day - 1, day, &events, snapshot.clone());
        let residual = tracer.time("events.residual", || match &prev {
            Some(p) => residual_advance(inst, p, &history, &delta),
            None => residual_of_validated(inst, &history, day),
        });
        let outcome = tracer.time("algorithms.residual_plan", || {
            plan_residual(&residual, &config, Some(&delta))
        });
        tracer.count(
            "algorithms.residual_evals",
            outcome.marginal_evaluations as f64,
        );
        prev = Some(residual);
        let inline_result = tracer.time("session.advance", || inline.advance(&events));
        let attached_result = tracer.time("service.attached_advance", || {
            let r = attached.advance(&events);
            attached.sync();
            r
        });
        for e in [inline_result, attached_result]
            .into_iter()
            .filter_map(Result::err)
        {
            problems.push(format!("layer pass, day {day}: {e}"));
        }
        let direct = shift_strategy(&outcome.strategy, day);
        let suffix = inline.planned_suffix().as_slice();
        if suffix != direct.as_slice() || suffix != attached.planned_suffix().as_slice() {
            problems.push(format!(
                "layer pass, day {day}: inline, attached and direct replans differ"
            ));
        }
    }
}

fn request(method: &str, target: &str, body: &str) -> Request {
    Request {
        head: RequestHead {
            method: method.to_string(),
            target: target.to_string(),
            http11: true,
            headers: vec![("Content-Length".to_string(), body.len().to_string())],
        },
        body: body.as_bytes().to_vec(),
    }
}

/// The session id in a response, when its status is `expect`.
fn session_id(resp: &Response, expect: u16, problems: &mut Vec<String>) -> Option<u64> {
    let id = (resp.status == expect)
        .then(|| json::parse(&resp.body).ok()?.get("session_id")?.as_u64())
        .flatten();
    if id.is_none() {
        problems.push(format!(
            "layer pass: status {} (expected {expect})",
            resp.status
        ));
    }
    id
}

/// One storefront session through each front-end layer on the same inputs:
/// wire encoding and decoding, the registry called directly, the `Api`
/// handler in process, and the server over loopback.
fn front_end(
    tracer: &mut Tracer,
    inst: &Instance,
    shopper: Shopper,
    registry: &Registry,
    api: &Api,
    client: &mut Client,
    problems: &mut Vec<String>,
) {
    tracer.next_op();
    let body = tracer.time("wire.instance_encode", || open_body(inst));
    tracer.count("wire.open_request_kb", body.len() as f64 / 1024.0);
    let decoded = tracer.time("wire.instance_decode", || {
        json::parse(&body)
            .ok()
            .and_then(|v| wire::instance_from_value(v.get("instance")?).ok())
    });
    let Some(decoded) = decoded else {
        problems.push("layer pass: the open body does not decode".to_string());
        return;
    };
    let opened = tracer.time("registry.open", || {
        registry.open_session(decoded, session_config())
    });
    let Ok((rid, mut view)) = opened else {
        problems.push("layer pass: the registry refused to open a session".to_string());
        return;
    };

    tracer.next_op();
    let open = request("POST", "/sessions", &body);
    let resp = tracer.time("http.api_open", || api.handle(&open));
    let aid = session_id(&resp, 201, problems);
    let reply = tracer.time("http.rtt_open", || {
        client.request("POST", "/sessions", Some(&body))
    });
    let sid = match reply {
        Ok((201, text)) => json::parse(&text)
            .ok()
            .and_then(|v| v.get("session_id")?.as_u64()),
        _ => None,
    };
    let (Some(aid), Some(sid)) = (aid, sid) else {
        problems.push("layer pass: a session did not open".to_string());
        return;
    };

    let mut walk = Walk::new(inst, shopper);
    for day in 1..=inst.horizon() {
        let events = walk.day_events(view.suffix.as_slice(), day);
        let text = events_body(day, &events);
        tracer.next_op();
        let decoded = tracer.time("wire.events_decode", || {
            json::parse(&text)
                .ok()
                .and_then(|v| wire::events_from_value(v.get("events")?).ok())
        });
        if decoded.as_deref() != Some(events.as_slice()) {
            problems.push(format!("layer pass, day {day}: events do not round-trip"));
        }
        match tracer.time("registry.advance", || {
            registry.advance_session(rid, Some(day), &events)
        }) {
            Ok(next) => view = next,
            Err(e) => {
                problems.push(format!("layer pass, day {day}: registry advance: {e}"));
                return;
            }
        }
        let encoded = tracer.time("wire.suffix_encode", || {
            wire::strategy_to_value(&view.suffix).to_string()
        });
        drop(encoded);

        let kinds = [
            ("event", "POST", "events", Some(text.as_str())),
            ("read", "GET", "suffix", None),
        ];
        for (kind, method, path, body) in kinds {
            tracer.next_op();
            let (api_span, rtt_span) = match kind {
                "event" => ("http.api_event", "http.rtt_event"),
                _ => ("http.api_read", "http.rtt_read"),
            };
            let req = request(
                method,
                &format!("/sessions/{aid}/{path}"),
                body.unwrap_or(""),
            );
            let resp = tracer.time(api_span, || api.handle(&req));
            if resp.status != 200 {
                problems.push(format!(
                    "layer pass, day {day}: api {kind} status {}",
                    resp.status
                ));
            }
            if kind == "event" {
                tracer.count("wire.event_response_kb", resp.body.len() as f64 / 1024.0);
            }
            let target = format!("/sessions/{sid}/{path}");
            match tracer.time(rtt_span, || client.request(method, &target, body)) {
                Ok((200, _)) => {}
                Ok((status, _)) => problems.push(format!(
                    "layer pass, day {day}: http {kind} status {status}"
                )),
                Err(e) => problems.push(format!("layer pass, day {day}: http {kind}: {e}")),
            }
        }
    }
    let _ = registry.close_session(rid);
    let close = request("DELETE", &format!("/sessions/{aid}"), "");
    if api.handle(&close).status != 200 {
        problems.push("layer pass: api close failed".to_string());
    }
    if !matches!(
        client.request("DELETE", &format!("/sessions/{sid}"), None),
        Ok((200, _))
    ) {
        problems.push("layer pass: http close failed".to_string());
    }
}

/// The per-layer metrics, as medians over the spans and counts recorded.
pub fn metrics(t: &Tracer) -> Vec<Metric> {
    let ms = |name: &str| median(&t.durations(name));
    let count = |name: &str| median(&t.counts(name));
    let kinds = ["open", "event", "read"];
    let api = |k: &str| t.durations(&format!("http.api_{k}"));
    let transport = |k: &str| t.differences(&format!("http.rtt_{k}"), &[&format!("http.api_{k}")]);
    let all =
        |f: &dyn Fn(&str) -> Vec<f64>| median(&kinds.iter().flat_map(|k| f(k)).collect::<Vec<_>>());
    vec![
        metric("revenue.engine_build_ms", ms("revenue.engine_build"), "ms"),
        metric("algorithms.gg_evals", count("algorithms.gg_evals"), "count"),
        metric(
            "algorithms.slg_evals",
            count("algorithms.slg_evals"),
            "count",
        ),
        metric(
            "algorithms.gg_ns_per_eval",
            count("algorithms.gg_ns_per_eval"),
            "ns",
        ),
        metric(
            "algorithms.slg_ns_per_eval",
            count("algorithms.slg_ns_per_eval"),
            "ns",
        ),
        metric("quality.gg_bound_pct", count("quality.gg_bound_pct"), "%"),
        metric("quality.slg_bound_pct", count("quality.slg_bound_pct"), "%"),
        metric("events.residual_ms", ms("events.residual"), "ms"),
        metric(
            "algorithms.residual_plan_ms",
            ms("algorithms.residual_plan"),
            "ms",
        ),
        metric(
            "algorithms.residual_evals",
            count("algorithms.residual_evals"),
            "count",
        ),
        metric(
            "session.advance_self_ms",
            median(&t.differences(
                "session.advance",
                &["events.residual", "algorithms.residual_plan"],
            )),
            "ms",
        ),
        metric(
            "service.handoff_ms",
            median(&t.differences("service.attached_advance", &["session.advance"])),
            "ms",
        ),
        metric("registry.open_ms", ms("registry.open"), "ms"),
        metric("registry.advance_ms", ms("registry.advance"), "ms"),
        metric("wire.instance_decode_ms", ms("wire.instance_decode"), "ms"),
        metric("wire.instance_encode_ms", ms("wire.instance_encode"), "ms"),
        metric("wire.events_decode_ms", ms("wire.events_decode"), "ms"),
        metric("wire.suffix_encode_ms", ms("wire.suffix_encode"), "ms"),
        metric("wire.open_request_kb", count("wire.open_request_kb"), "KB"),
        metric(
            "wire.event_response_kb",
            count("wire.event_response_kb"),
            "KB",
        ),
        metric("http.api_ms", all(&api), "ms"),
        metric("http.transport_ms", all(&transport), "ms"),
        metric("http.api_open_ms", median(&api("open")), "ms"),
        metric("http.api_event_ms", median(&api("event")), "ms"),
        metric("http.api_read_ms", median(&api("read")), "ms"),
        metric("http.transport_open_ms", median(&transport("open")), "ms"),
        metric("http.transport_event_ms", median(&transport("event")), "ms"),
        metric("http.transport_read_ms", median(&transport("read")), "ms"),
        metric("http.read_rtt_ms", ms("http.rtt_read"), "ms"),
    ]
}
