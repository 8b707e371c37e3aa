//! `http-storefront`: seeded shoppers walk replan sessions over loopback
//! against an in-process `revmax_http::Server`, as a closed loop of two
//! client connections, with every response checked against an in-process
//! `PlanSession` twin.

use crate::reference::revenue_upper_bound;
use crate::shopper::{Shopper, Walk};
use crate::trace::Tracer;
use crate::{dataset, layers, p95, session_config, Samples, Workload};
use revmax_core::{json, wire, Instance, Strategy, Triple};
use revmax_http::{testkit::Client, HttpConfig, Server};
use revmax_serve::{PlanService, PlanSession, Registry, RegistryConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections, each a closed loop.
const CLIENTS: usize = 2;

/// Session instances per run, each from its own dataset seed.
const INSTANCES: u64 = 4;
/// Shopper streams per instance; a round walks every (instance, stream).
const STREAMS: u64 = 2;

/// `INSTANCES` 460-user instances from dataset seeds 1.., relabeled by `seed`.
fn instances(seed: u64) -> Vec<Instance> {
    (1..=INSTANCES)
        .map(|k| dataset(0.02, k, seed ^ k << 32))
        .collect()
}

/// The server every run starts: 2 connection workers over a registry whose
/// service has 2 planning workers, one per client. With 1 planning worker
/// one client's replan queues behind the other's; on a 2-CPU host that
/// queueing amplified the host's speed drift until the p95 round trip
/// spread by 29% between 30-second runs.
pub fn http_config() -> HttpConfig {
    HttpConfig {
        port: 0,
        workers: 2,
        queue: 64,
        body_limit: 32 * 1024 * 1024,
        idle_timeout: Duration::from_secs(60),
        registry: RegistryConfig::default(),
    }
}

pub fn start_server() -> Server {
    let config = http_config();
    let registry = Arc::new(Registry::new(
        Arc::new(PlanService::new(CLIENTS)),
        config.registry,
    ));
    Server::start(registry, config).expect("bind a loopback port")
}

/// The `POST /sessions` body for `inst`: the instance and a warm-started
/// session config.
pub fn open_body(inst: &Instance) -> String {
    format!(
        "{{\"instance\":{},\"config\":{{\"warm_start\":true}}}}",
        wire::instance_to_json(inst)
    )
}

/// The `POST /sessions/{id}/events` body for one day.
pub fn events_body(day: u32, events: &[revmax_core::AdoptionEvent]) -> String {
    format!(
        "{{\"now\":{day},\"events\":{}}}",
        wire::events_to_json(events)
    )
}

/// What the in-process twin planned: the suffix after opening and, per day,
/// the suffix and realized revenue after the advance.
struct Twin {
    open: Vec<Triple>,
    days: Vec<(Vec<Triple>, f64)>,
}

fn twin(inst: &Instance, walk: &mut Walk<'_>, problems: &mut Vec<String>) -> Twin {
    let mut session = PlanSession::new(inst.clone(), session_config());
    let open = session.planned_suffix().as_slice().to_vec();
    let mut days = Vec::new();
    for day in 1..=inst.horizon() {
        let events = walk.day_events(session.planned_suffix().as_slice(), day);
        if let Err(e) = session.advance(&events) {
            problems.push(format!("twin day {day}: {e}"));
            break;
        }
        let suffix = session.planned_suffix().as_slice();
        if let Err(e) = walk.check(day, suffix, session.realized_revenue()) {
            problems.push(format!("twin day {day}: {e}"));
        }
        days.push((suffix.to_vec(), session.realized_revenue()));
    }
    Twin { open, days }
}

pub struct Storefront {
    seed: u64,
    insts: Vec<Instance>,
    bodies: Vec<String>,
    bounds: Vec<f64>,
    twins: Vec<Twin>,
    server: Option<Server>,
    clients: Vec<Client>,
    /// The next session to walk; sessions cycle over `twins`. It hands out
    /// indices only and publishes no other data.
    next: AtomicUsize,
}

impl Storefront {
    /// The workload and the seconds its set-up took: the instances, their
    /// wire encoding and the server start.
    pub fn new(seed: u64) -> (Self, f64) {
        let started = Instant::now();
        let insts = instances(seed);
        let bodies: Vec<String> = insts.iter().map(open_body).collect();
        let server = start_server();
        let setup_s = started.elapsed().as_secs_f64();
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(server.addr()).expect("connect to the loopback server"))
            .collect();
        let store = Storefront {
            seed,
            insts,
            bodies,
            bounds: Vec::new(),
            twins: Vec::new(),
            server: Some(server),
            clients,
            next: AtomicUsize::new(0),
        };
        (store, setup_s)
    }

    /// Walks session `job` (instance `job / STREAMS`) over `client`.
    fn session(&self, client: &mut Client, job: usize, out: &mut Samples) {
        let k = job / STREAMS as usize;
        let inst = &self.insts[k];
        let twin = &self.twins[job];
        let mut walk = Walk::new(inst, Shopper::of(self.seed, k, job as u64 % STREAMS));
        let mut request =
            |kind: &'static str, method: &str, target: &str, body: Option<&str>, expect: u16| {
                let started = Instant::now();
                let reply = client.request(method, target, body);
                let ms = started.elapsed().as_secs_f64() * 1e3;
                match reply {
                    Ok((status, body)) if status == expect => {
                        out.ops += 1;
                        match kind {
                            "open" => out.second.push(ms),
                            "event" => out.main.push(ms),
                            _ => {}
                        }
                        Some(body)
                    }
                    Ok((status, body)) => {
                        out.failed += 1;
                        let head: String = body.chars().take(200).collect();
                        out.problems
                            .push(format!("{method} {target}: status {status}: {head}"));
                        None
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problems.push(format!("{method} {target}: {e}"));
                        None
                    }
                }
            };
        let mut problems = Vec::new();
        let Some(body) = request("open", "POST", "/sessions", Some(&self.bodies[k]), 201) else {
            return;
        };
        let Some((sid, suffix, _)) = parse_view(&body, &mut problems) else {
            out.problems.append(&mut problems);
            return;
        };
        if suffix.as_slice() != twin.open.as_slice() {
            problems.push(format!(
                "session {job}: opened suffix differs from the twin's"
            ));
        }
        let mut suffix = suffix;
        let mut realized = 0.0;
        for day in 1..=inst.horizon() {
            let events = walk.day_events(suffix.as_slice(), day);
            let target = format!("/sessions/{sid}/events");
            let Some(body) = request(
                "event",
                "POST",
                &target,
                Some(&events_body(day, &events)),
                200,
            ) else {
                break;
            };
            let Some((_, next, revenue)) = parse_view(&body, &mut problems) else {
                break;
            };
            let agrees = twin.days.get(day as usize - 1).is_some_and(|(s, r)| {
                next.as_slice() == s.as_slice() && revenue.to_bits() == r.to_bits()
            });
            if !agrees {
                problems.push(format!(
                    "session {job} day {day}: suffix or revenue differs from the twin's"
                ));
            }
            let target = format!("/sessions/{sid}/suffix");
            let Some(body) = request("read", "GET", &target, None, 200) else {
                break;
            };
            if let Some((_, read, _)) = parse_view(&body, &mut problems) {
                if read.as_slice() != next.as_slice() {
                    problems.push(format!(
                        "session {job} day {day}: read suffix differs from the written one"
                    ));
                }
            }
            suffix = next;
            realized = revenue;
        }
        request("close", "DELETE", &format!("/sessions/{sid}"), None, 200);
        out.earned += realized;
        out.bound += self.bounds[k];
        out.problems.append(&mut problems);
    }
}

/// The session id, suffix and realized revenue of a session document.
fn parse_view(body: &str, problems: &mut Vec<String>) -> Option<(u64, Strategy, f64)> {
    let parsed = json::parse(body).ok().and_then(|view| {
        let sid = view.get("session_id")?.as_u64()?;
        let suffix = wire::strategy_from_value(view.get("suffix")?).ok()?;
        let realized = view.get("realized_revenue")?.as_f64()?;
        Some((sid, suffix, realized))
    });
    if parsed.is_none() {
        problems.push("a session document does not parse".to_string());
    }
    parsed
}

impl Workload for Storefront {
    fn prepare(&mut self, problems: &mut Vec<String>) {
        self.bounds = self.insts.iter().map(revenue_upper_bound).collect();
        for (k, inst) in self.insts.iter().enumerate() {
            for s in 0..STREAMS {
                let mut walk = Walk::new(inst, Shopper::of(self.seed, k, s));
                self.twins.push(twin(inst, &mut walk, problems));
            }
        }
    }

    /// Both clients walk sessions in one closed loop until `seconds` have
    /// gone by, each finishing the session it is in; neither waits for
    /// the other between sessions.
    fn run(&mut self, seconds: f64, out: &mut Samples) {
        let mut clients = std::mem::take(&mut self.clients);
        let this = &*self;
        let started = Instant::now();
        let results: Vec<Samples> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    scope.spawn(move || {
                        let mut mine = Samples::default();
                        loop {
                            let job = this.next.fetch_add(1, Ordering::Relaxed) % this.twins.len();
                            this.session(client, job, &mut mine);
                            if started.elapsed().as_secs_f64() >= seconds {
                                break mine;
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        self.clients = clients;
        for r in results {
            out.merge(r);
        }
    }

    fn tail_ms(&self, samples: &Samples) -> f64 {
        p95(&samples.main)
    }

    fn layers(
        &mut self,
        tracer: &mut Tracer,
        seconds: f64,
        problems: &mut Vec<String>,
    ) -> layers::PassReport {
        let shoppers: Vec<_> = (0..self.insts.len())
            .map(|k| Shopper::of(self.seed, k, 0))
            .collect();
        layers::pass(
            tracer,
            (&self.insts[0], self.bounds[0]),
            &self.insts,
            &shoppers,
            seconds,
            problems,
        )
    }
}

impl Drop for Storefront {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
