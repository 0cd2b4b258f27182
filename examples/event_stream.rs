//! A durable event stream with consumer groups, on the network stack —
//! plus a DHT-backed global lookup of the topic's routes.
//!
//! Combines two pieces the paper sketches: the Kafka-style append-only log
//! (§V-A cites Kafka as the exemplar) and the DHT-backed global
//! GLookupService (§VII).
//!
//! Run with: `cargo run --example event_stream`

use gdp::caapi::{GdpStream, Message};
use gdp::router::DhtCluster;
use gdp::sim::{GdpWorld, Placement};
use gdp::wire::Name;

fn main() {
    // The topic lives on an edge deployment; every publish/poll below is a
    // full client → router → server round trip with verification.
    let world = GdpWorld::new(77, Placement::EdgeLan);
    let owner = world.owner.clone();
    let mut stream = GdpStream::create(world, owner, "factory-events").unwrap();
    let topic = stream.topic();
    println!("topic capsule: {}", topic.to_hex());

    // Producers publish (batch = pipelined on the wire).
    let events: Vec<Message> = (0..12)
        .map(|i| Message {
            key: format!("robot-{}", i % 3).into_bytes(),
            value: format!("step {i} completed").into_bytes(),
        })
        .collect();
    stream.publish_batch(&events).unwrap();
    println!(
        "published {} events; high watermark = {}",
        events.len(),
        stream.high_watermark().unwrap()
    );

    // Two independent consumer groups at their own pace.
    let batch = stream.poll("alerting", 5).unwrap();
    println!(
        "alerting group polled {} events (offsets {}..{})",
        batch.len(),
        batch[0].0,
        batch[batch.len() - 1].0
    );
    stream.commit_offset("alerting", batch.last().unwrap().0).unwrap();

    let audit = stream.poll("audit", 100).unwrap();
    println!("audit group sees all {} events independently", audit.len());

    // Time shift: replay history regardless of commits.
    let replay = stream.replay(3, 4).unwrap();
    println!(
        "replay from offset 3: {} events, first = {:?}",
        replay.len(),
        String::from_utf8_lossy(&replay[0].1.value)
    );

    // Publish the topic's route into a DHT-backed global GLookupService and
    // resolve it from an arbitrary member.
    let world = stream.backend_mut();
    let now = world.now();
    let routes = world.router(0).lookup_local(&topic, now);
    let mut dht = DhtCluster::new();
    let members: Vec<Name> =
        (0..24).map(|i| Name::from_content(format!("dht member {i}").as_bytes())).collect();
    dht.join(members[0], None);
    for m in &members[1..] {
        dht.join(*m, Some(members[0]));
    }
    dht.publish(&members[0], routes[0].clone());
    let found = dht.lookup(&members[23], &topic, now);
    println!(
        "DHT lookup from member 23: {} verifiable route(s) in {} iterative hops ✔",
        found.len(),
        dht.last_lookup_hops
    );
    found[0].verify(now).expect("route verifies end to end");
}
