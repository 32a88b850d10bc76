//! End-to-end server tests over real sockets: query/feedback/stats/
//! rebuild round trips, typed error replies, pipelining, the bounded
//! connection limit, and the read-timeout guard against half-sent
//! frames.

use std::sync::Arc;
use std::time::Duration;

use habf_core::tenant::TenantStore;
use habf_core::{AdaptPolicy, BuildInput, FilterSpec};
use habf_serve::protocol::{self, error_code, frame_type};
use habf_serve::{Client, Server, ServerConfig, ServerHandle, TenantTable, WireError};

fn members(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("user:{i}").into_bytes()).collect()
}

fn tenant(name: &str, n: usize) -> TenantStore {
    let keys = members(n);
    let input = BuildInput::from_members(&keys);
    let filter = FilterSpec::habf()
        .bits_per_key(10.0)
        .build(&input)
        .expect("build");
    TenantStore::new(name, filter, AdaptPolicy::cost_threshold(50.0)).with_members(keys)
}

fn start(config: ServerConfig, stores: Vec<TenantStore>) -> ServerHandle {
    let tenants = Arc::new(TenantTable::new());
    for store in stores {
        tenants.add(store);
    }
    Server::bind("127.0.0.1:0", tenants, config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr(), Duration::from_secs(5)).expect("connect")
}

#[test]
fn query_feedback_stats_round_trip_on_one_connection() {
    let handle = start(ServerConfig::default(), vec![tenant("t1", 800)]);
    let mut client = connect(&handle);

    client.ping(b"hello").expect("ping");

    // Members all answer true (zero FN over the wire); fresh keys are
    // answered in order alongside them.
    let mut probe = members(800);
    probe.extend((0..200).map(|i| format!("ghost:{i}").into_bytes()));
    let answers = client.query("t1", &probe).expect("query");
    assert_eq!(answers.len(), probe.len());
    assert!(
        answers[..800].iter().all(|&b| b),
        "member dropped over the wire"
    );

    // Pipelined chunks give byte-identical answers.
    let pipelined = client.query_pipelined("t1", &probe, 64).expect("pipelined");
    assert_eq!(pipelined, answers);

    let accepted = client
        .feedback(
            "t1",
            &[(b"ghost:0".to_vec(), 3.0), (b"ghost:1".to_vec(), 2.0)],
        )
        .expect("feedback");
    assert_eq!(accepted, 2);

    let stats = client.stats("t1").expect("stats");
    assert!(stats.contains("\"filter_id\":\"habf\""), "{stats}");
    assert!(stats.contains("\"fp_events\":2"), "{stats}");
    assert!(stats.contains("\"generation\":0"), "{stats}");
    assert!(stats.contains("\"saturation\":"), "{stats}");
    assert!(stats.contains("\"tiers\":1"), "{stats}");
    assert!(stats.contains("\"rebuild_kind\":null"), "{stats}");

    handle.shutdown();
}

#[test]
fn insert_grows_a_scalable_tenant_over_the_wire() {
    let keys = members(64);
    let input = BuildInput::from_members(&keys);
    let filter = FilterSpec::scalable_habf()
        .bits_per_key(10.0)
        .build(&input)
        .expect("build");
    let store =
        TenantStore::new("elastic", filter, AdaptPolicy::cost_threshold(50.0)).with_members(keys);
    let handle = start(ServerConfig::default(), vec![store, tenant("fixed", 64)]);
    let mut client = connect(&handle);

    let burst: Vec<Vec<u8>> = (0..512).map(|i| format!("late:{i}").into_bytes()).collect();
    let (accepted, tiers, saturation) = client.insert("elastic", &burst).expect("insert");
    assert_eq!(accepted, 512);
    assert!(tiers > 1, "burst past capacity should open new tiers");
    assert!(saturation.is_finite());

    // Everything inserted (and everything original) answers true.
    let mut probe = members(64);
    probe.extend(burst);
    let answers = client.query("elastic", &probe).expect("query");
    assert!(answers.iter().all(|&b| b), "insert dropped a key");

    // Stats surface the grown stack; an insert is not a rebuild.
    let stats = client.stats("elastic").expect("stats");
    assert!(stats.contains("\"generation\":0"), "{stats}");
    assert!(stats.contains(&format!("\"tiers\":{tiers}")), "{stats}");

    // A rebuild folds the stack back to one tier and records why.
    let (_, generation) = client.rebuild("elastic", 9, 256).expect("rebuild");
    assert_eq!(generation, 1);
    let stats = client.stats("elastic").expect("stats");
    assert!(stats.contains("\"tiers\":1"), "{stats}");
    assert!(stats.contains("\"rebuild_kind\":\"compact\""), "{stats}");

    // A fixed-capacity tenant refuses the same insert, typed, and the
    // connection keeps serving.
    let err = client
        .insert("fixed", &[b"k".to_vec()])
        .expect_err("habf cannot grow");
    match err {
        WireError::Server { code, message } => {
            assert_eq!(code, error_code::NOT_GROWABLE);
            assert!(message.contains("habf"), "{message}");
        }
        other => panic!("want Server error, got {other:?}"),
    }
    client.ping(b"still-serving").expect("ping");

    handle.shutdown();
}

#[test]
fn unknown_tenant_and_unknown_type_are_typed_replies_on_a_live_connection() {
    let handle = start(ServerConfig::default(), vec![tenant("t1", 200)]);
    let mut client = connect(&handle);

    let err = client
        .query("nope", &[b"k".to_vec()])
        .expect_err("unknown tenant");
    match err {
        WireError::Server { code, message } => {
            assert_eq!(code, error_code::UNKNOWN_TENANT);
            assert!(message.contains("nope"), "{message}");
        }
        other => panic!("want Server error, got {other:?}"),
    }

    // The connection survived the error frame: a well-formed request
    // right after it still answers.
    client.ping(b"still-alive").expect("ping after error");

    // A reply-typed (unknown) request type is a typed error too.
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    protocol::write_frame(&mut raw, 0x42, b"").expect("write");
    let reply = protocol::read_frame(&mut raw)
        .expect("read")
        .expect("frame");
    assert_eq!(reply.kind, frame_type::ERROR);
    let (code, _) = protocol::decode_error(&reply.payload).expect("decode");
    assert_eq!(code, error_code::UNKNOWN_TYPE);

    handle.shutdown();
}

#[test]
fn rebuild_over_the_wire_swaps_generations_and_keeps_members() {
    let handle = start(ServerConfig::default(), vec![tenant("t1", 600)]);
    let mut client = connect(&handle);

    for i in 0..64 {
        let key = format!("hot:{}", i % 4).into_bytes();
        client.feedback("t1", &[(key, 2.0)]).expect("feedback");
    }
    assert!(client
        .stats("t1")
        .expect("stats")
        .contains("\"wants_rebuild\":true"));

    let (hints, generation) = client.rebuild("t1", 7, 1024).expect("rebuild");
    assert!(hints >= 1, "no hints mined");
    assert_eq!(generation, 1);

    let answers = client.query("t1", &members(600)).expect("query");
    assert!(answers.iter().all(|&b| b), "rebuild dropped a member");
    assert!(client
        .stats("t1")
        .expect("stats")
        .contains("\"generation\":1"));

    // A tenant without a positive set refuses the rebuild, typed.
    let no_members = {
        let keys = members(100);
        let input = BuildInput::from_members(&keys);
        let filter = FilterSpec::habf()
            .bits_per_key(10.0)
            .build(&input)
            .expect("build");
        TenantStore::new("frozen", filter, AdaptPolicy::cost_threshold(1.0))
    };
    let handle2 = start(ServerConfig::default(), vec![no_members]);
    let mut client2 = connect(&handle2);
    let err = client2.rebuild("frozen", 0, 16).expect_err("must refuse");
    match err {
        WireError::Server { code, .. } => assert_eq!(code, error_code::REBUILD_FAILED),
        other => panic!("want Server error, got {other:?}"),
    }

    handle.shutdown();
    handle2.shutdown();
}

#[test]
fn connection_limit_answers_busy_with_a_retry_hint_instead_of_queueing() {
    let config = ServerConfig {
        max_connections: 1,
        busy_retry_ms: 40,
        ..ServerConfig::default()
    };
    let handle = start(config, vec![tenant("t1", 100)]);

    // Occupy the single slot (the ping reply proves the connection
    // is registered and counted).
    let mut first = connect(&handle);
    first.ping(b"slot").expect("ping");

    // Raw socket: the refusal carries the typed BUSY code plus the
    // configured retry-after hint byte.
    let mut second = std::net::TcpStream::connect(handle.addr()).expect("connect");
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let reply = protocol::read_frame(&mut second)
        .expect("read")
        .expect("frame");
    assert_eq!(reply.kind, frame_type::ERROR);
    let parts = protocol::decode_error_parts(&reply.payload).expect("decode");
    assert_eq!(parts.code, error_code::BUSY);
    assert_eq!(parts.retry_after_ms, Some(40));
    drop(second);

    // Client surface: the same refusal decodes to the typed Busy error.
    // (Read the unsolicited refusal frame directly — the server may
    // close the socket before a request write would land.)
    let mut third = connect(&handle);
    match third.recv_answers() {
        Err(WireError::Busy {
            retry_after_ms,
            message,
        }) => {
            assert_eq!(retry_after_ms, 40);
            assert!(message.contains("connection limit"), "{message}");
        }
        other => panic!("want Busy error, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn every_connection_up_to_the_cap_is_served_however_fds_spread_over_workers() {
    // Connections go to workers by `fd % workers`, and accepted fds are
    // often skewed (in one process, client and server sockets take
    // alternate fd numbers). Admission must count only against the
    // global cap, so a full house of `max_connections` clients is
    // served even when several land on the same worker.
    let config = ServerConfig {
        max_connections: 8,
        workers: 8,
        ..ServerConfig::default()
    };
    let handle = start(config, vec![tenant("t1", 100)]);
    let mut clients = Vec::new();
    for i in 0..8 {
        let mut client = connect(&handle);
        if let Err(e) = client.ping(b"admit") {
            panic!("connection {i} of 8 refused under a cap of 8: {e}");
        }
        clients.push(client);
    }
    // Every held connection still answers queries.
    for client in &mut clients {
        let answers = client.query("t1", &members(100)).expect("query");
        assert!(answers.iter().all(|&b| b), "member dropped");
    }
    handle.shutdown();
}

#[test]
fn coalesced_cross_connection_queries_answer_in_order_per_connection() {
    // Many clients hammering the same tenant in the same wakeups: the
    // reactor merges their QUERY frames into shared batch probes, and
    // every client must still see its own answers, in its own order.
    let handle = start(ServerConfig::default(), vec![tenant("t1", 500)]);
    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
                for round in 0..20 {
                    // Distinct per-thread slices so a cross-wired answer
                    // bitset cannot go unnoticed.
                    let lo = (t * 37 + round * 11) % 400;
                    let mut probe: Vec<Vec<u8>> = (lo..lo + 64)
                        .map(|i| format!("user:{i}").into_bytes())
                        .collect();
                    probe.push(format!("ghost:{t}:{round}").into_bytes());
                    let answers = client.query("t1", &probe).expect("query");
                    assert_eq!(answers.len(), probe.len());
                    assert!(
                        answers[..64].iter().all(|&b| b),
                        "thread {t} round {round}: member dropped (coalescing cross-wired answers?)"
                    );
                }
            })
        })
        .collect();
    for join in threads {
        join.join().expect("worker");
    }
    handle.shutdown();
}

#[test]
fn shutdown_frame_is_refused_by_default_and_stops_an_opted_in_server() {
    // Default config: the frame is a typed refusal, the server lives on.
    let handle = start(ServerConfig::default(), vec![tenant("t1", 100)]);
    let mut client = connect(&handle);
    let err = client.shutdown().expect_err("must refuse");
    match err {
        WireError::Server { code, .. } => assert_eq!(code, error_code::SHUTDOWN_REFUSED),
        other => panic!("want Server error, got {other:?}"),
    }
    client.ping(b"refusal keeps serving").expect("ping");
    handle.shutdown();

    // Opted in: SHUTDOWN_OK comes back and the accept loop stops.
    let config = ServerConfig {
        allow_shutdown: true,
        ..ServerConfig::default()
    };
    let handle = start(config, vec![tenant("t1", 100)]);
    let addr = handle.addr();
    let mut client = connect(&handle);
    client.shutdown().expect("shutdown");
    handle.shutdown(); // joins the already-stopping accept thread
                       // New connections die instead of being served.
    let gone = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        match Client::connect(addr, Duration::from_millis(500)) {
            Err(_) => true,
            Ok(mut c) => c.ping(b"x").is_err(),
        }
    });
    assert!(gone, "server kept serving after SHUTDOWN_OK");
}

#[test]
fn half_sent_frame_times_out_instead_of_wedging_the_server() {
    use std::io::Write as _;
    let config = ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let handle = start(config, vec![tenant("t1", 100)]);

    // Send a valid header promising 100 payload bytes, then stall.
    let mut stalled = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut header = Vec::new();
    header.extend_from_slice(b"HF");
    header.push(protocol::VERSION);
    header.push(frame_type::PING);
    header.extend_from_slice(&100u32.to_le_bytes());
    stalled.write_all(&header).expect("write header");

    // The server's read timeout fires, it answers with a typed error
    // frame and closes — the connection thread is not wedged forever.
    let reply = protocol::read_frame(&mut stalled)
        .expect("read")
        .expect("frame");
    assert_eq!(reply.kind, frame_type::ERROR);
    assert!(
        protocol::read_frame(&mut stalled).expect("eof").is_none(),
        "server must close after a framing error"
    );

    // And the server still serves fresh connections.
    let mut client = connect(&handle);
    client.ping(b"after-stall").expect("ping");
    handle.shutdown();
}
