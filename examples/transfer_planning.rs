//! Transfer planning: disks or wires?
//!
//! ```text
//! cargo run -p sciflow-examples --bin transfer_planning
//! ```
//!
//! Reproduces the paper's Section-5 contrast: for each project's transfer
//! problem, compare physical media shipping against the network links
//! actually available in 2005/2006.

use sciflow_core::units::{DataVolume, SimDuration};
use sciflow_simnet::profiles;
use sciflow_simnet::transfer::{compare, crossover_bandwidth};

fn main() {
    let scenarios = [
        (
            "Arecibo: one 10 TB observing session to the CTC",
            DataVolume::tb(10),
            profiles::arecibo_uplink(),
            profiles::ata_disk(),
            profiles::arecibo_to_ctc(),
        ),
        (
            "CLEO: 1 TB of offsite Monte Carlo to Cornell",
            DataVolume::tb(1),
            profiles::internet2_100(),
            profiles::usb_disk(),
            profiles::mc_farm_to_cornell(),
        ),
        (
            "WebLab: one week of crawl data (1.75 TB) from the Internet Archive",
            DataVolume::gb(1750),
            profiles::internet2_100(),
            profiles::ata_disk(),
            profiles::arecibo_to_ctc(),
        ),
    ];

    for (label, volume, link, media, route) in scenarios {
        let c = compare(volume, &link, &media, &route);
        println!("{label}");
        println!(
            "  network ({}): {}",
            link.name,
            c.network_time.map(|t| t.to_string()).unwrap_or_else(|| "unusable".into())
        );
        println!(
            "  shipping ({} × {}): {} + {:.0} person-hours",
            c.shipping.units, media.name, c.shipping.total_time, c.shipping.personnel_hours
        );
        println!("  verdict: {:?} wins by {:.1}×", c.winner, c.advantage.unwrap_or(f64::NAN));
        if let Some(cross) =
            crossover_bandwidth(volume, &media, &route, SimDuration::from_micros(50_000))
        {
            println!(
                "  network would need ≥ {cross} (~{:.0} Mb/s) to match the couriers",
                cross.bytes_per_sec() * 8.0 / 1e6
            );
        }
        println!();
    }
}
