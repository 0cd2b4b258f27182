//! An IoT sensor network on the Global Data Plane.
//!
//! The paper's first deployed applications (§VIII): "time-series
//! environmental sensors" writing into DataCapsules, with visualization
//! clients reading windows and subscribers receiving live, verified
//! updates — here over a simulated edge domain.
//!
//! Run with: `cargo run --example sensor_network`

use gdp::caapi::{GdpTimeSeries, Sample};
use gdp::client::ClientEvent;
use gdp::sim::{GdpWorld, Placement};

fn main() {
    // A single edge domain: sensor (writer) and dashboard (subscriber)
    // share a LAN with the DataCapsule-server.
    let world = GdpWorld::new(42, Placement::EdgeLan);
    let owner = world.owner.clone();

    // The time-series CAAPI runs directly over the network world: every
    // record() below is a signed append travelling client → router →
    // server, acknowledged with an authenticated response.
    println!("creating temperature capsule…");
    let mut series = GdpTimeSeries::create(world, &owner, "ambient temperature, lab 420").unwrap();
    let capsule = series.capsule();
    println!("capsule: {}", capsule.to_hex());

    // The sensor records four hours of minute-resolution samples.
    println!("recording 240 samples over the network…");
    let trace = gdp::sim::workload::sensor_trace(7, 240, 60_000_000);
    for (t, v) in &trace {
        series.record(Sample { timestamp_micros: *t, value: *v }).unwrap();
    }

    // Range query: a 30-minute window.
    let from = 100 * 60_000_000u64;
    let to = 130 * 60_000_000u64;
    let agg = series.aggregate(from, to).unwrap().unwrap();
    println!(
        "window query: min {:.2}°C  max {:.2}°C  mean {:.2}°C over {} samples",
        agg.min, agg.max, agg.mean, agg.count
    );

    // Downsampled view for a dashboard (one point per hour).
    let buckets = series.downsample(0, 240 * 60_000_000, 3_600_000_000).unwrap();
    println!("hourly means for visualization:");
    for (t, mean) in &buckets {
        println!("  hour starting {:>13} µs: {mean:.2}°C", t);
    }

    // Live pub-sub: a dashboard client subscribes, then the sensor keeps
    // publishing. The dashboard fetches the capsule metadata (the trust
    // anchor) from the serving replica.
    let world = series.backend_mut();
    let metadata = world.server(0).capsule(&capsule).unwrap().metadata().clone();

    let dash_node = world.add_client(&[77u8; 32], "dashboard", 0);
    world.cluster.client_at(dash_node).track_capsule(&metadata).unwrap();
    let sub = world.cluster.client_at(dash_node).subscribe(capsule, 240); // only future records
    world.cluster.send_from(dash_node, sub);
    world.cluster.settle();

    println!("dashboard subscribed; sensor publishes 5 live samples…");
    for i in 0..5u64 {
        let sample =
            Sample { timestamp_micros: (241 + i) * 60_000_000, value: 22.5 + i as f64 * 0.1 };
        series.record(sample).unwrap();
    }
    let world = series.backend_mut();
    world.cluster.settle();

    let events = world.cluster.take_events(dash_node);
    let live = events.iter().filter(|e| matches!(e, ClientEvent::SubEvent { .. })).count();
    println!("dashboard received {live} live, verified events ✔");
    assert_eq!(live, 5);
}
