//! Quickstart: mount an NFS export over a simulated Ethernet, do file
//! I/O through the full protocol stack, and inspect the statistics.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use renofs_repro::renofs::client::{ClientConfig, ClientFs};
use renofs_repro::renofs::{NfsProc, World, WorldConfig};
use renofs_repro::sim::SimTime;

fn main() {
    // A world = one client machine + one server machine (both modeled as
    // the paper's MicroVAXIIs) joined by a 10 Mbit/s Ethernet, with the
    // tuned NFS/UDP transport (dynamic RTO + congestion window).
    let mut world = World::new(WorldConfig::baseline());
    let root = world.root_handle();

    // Results come back from the workload proc over a channel.
    let (tx, rx) = std::sync::mpsc::channel();

    world.spawn(move |sys| {
        // Mount. `sys` gives the workload blocking syscalls backed by
        // the event loop: every RPC crosses the simulated wire.
        let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "client");

        // Create a directory and a file, write, read back.
        fs.mkdir("/projects").expect("mkdir");
        let fh = fs.open("/projects/hello.txt", true, false).expect("create");
        fs.write(fh, 0, b"Hello from 1991! NFS over a simulated LAN.")
            .expect("write");
        fs.close(fh).expect("close pushes dirty data");

        // Reading it again is served from the client block cache —
        // watch the RPC counters to see that.
        let data = fs.read(fh, 0, 100).expect("read");
        let text = String::from_utf8_lossy(&data).to_string();

        // A bigger file: 64 KB crosses the wire as 8 KB READ/WRITE RPCs,
        // each one fragmented into ~6 IP fragments on the Ethernet.
        let big = fs.open("/projects/big.bin", true, false).expect("create");
        let payload: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
        fs.write(big, 0, &payload).expect("write 64K");
        fs.close(big).expect("close");
        let back = fs.read(big, 0, 65536).expect("read 64K");
        assert_eq!(back, payload, "every byte crossed the network intact");

        let _ = tx.send((text, fs.counts()));
    });

    world.run();

    let (text, counts) = rx.recv().expect("workload finished");
    println!("read back: {text:?}");
    println!();
    println!("client RPCs issued:");
    for proc in [
        NfsProc::Lookup,
        NfsProc::Getattr,
        NfsProc::Create,
        NfsProc::Mkdir,
        NfsProc::Write,
        NfsProc::Read,
    ] {
        println!("  {:?}: {}", proc, counts.count(proc));
    }
    println!("  total: {}", counts.total());
    println!();
    let net = world.net_stats();
    println!(
        "network: {} datagrams sent as {} fragments ({} dropped)",
        net.datagrams_sent, net.frags_sent, net.frags_dropped
    );
    println!(
        "virtual time elapsed: {:.3}s (simulated MicroVAXIIs are slow!)",
        world.now().as_secs_f64()
    );
    assert!(world.now() > SimTime::ZERO);
}
