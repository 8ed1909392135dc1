//! Microbenchmarks of the simulation substrates: how fast the engine,
//! MPI layer, and file-system model execute on the host. These guard the
//! simulator's own performance (events/second), not simulated time.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::rc::Rc;

use s3a_des::{Barrier, Queue, Sim, SimTime};
use s3a_mpi::{MpiConfig, World};
use s3a_net::Fabric;
use s3a_pvfs::{FileSystem, PvfsConfig, Region};

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("des-engine");

    g.bench_function("spawn_join_1000", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.spawn("root", async move {
                for i in 0..1000 {
                    let s2 = s.clone();
                    s.spawn(format!("t{i}"), async move {
                        s2.sleep(SimTime::from_nanos(i)).await;
                    })
                    .join()
                    .await;
                }
            });
            sim.run().expect("no deadlock")
        })
    });

    g.bench_function("event_queue_10k_events", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for i in 0..100u64 {
                let s = sim.clone();
                sim.spawn(format!("p{i}"), async move {
                    for k in 0..100u64 {
                        s.sleep(SimTime::from_nanos((i * 37 + k * 101) % 1000))
                            .await;
                    }
                });
            }
            sim.run().expect("no deadlock")
        })
    });

    g.bench_function("queue_handoff_10k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let q: Queue<u64> = Queue::new(&sim);
            {
                let q = q.clone();
                sim.spawn("producer", async move {
                    for i in 0..10_000u64 {
                        q.push(i);
                    }
                });
            }
            {
                let q = q.clone();
                sim.spawn("consumer", async move {
                    for _ in 0..10_000u64 {
                        q.pop().await;
                    }
                });
            }
            sim.run().expect("no deadlock")
        })
    });

    g.bench_function("barrier_64_parties_100_rounds", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let bar = Barrier::new(&sim, 64);
            for i in 0..64 {
                let bar = bar.clone();
                let s = sim.clone();
                sim.spawn(format!("p{i}"), async move {
                    for r in 0..100u64 {
                        s.sleep(SimTime::from_nanos((i as u64 * 13 + r) % 50)).await;
                        bar.arrive().await;
                    }
                });
            }
            sim.run().expect("no deadlock")
        })
    });

    g.finish();
}

fn bench_mpi(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpi-layer");

    g.bench_function("pingpong_1000_rt", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let world = World::new(&sim, 2, MpiConfig::default());
            for rank in 0..2 {
                let comm = world.comm(rank);
                sim.spawn(format!("r{rank}"), async move {
                    for i in 0..1000u32 {
                        if comm.rank() == 0 {
                            comm.send(1, 1, i, 64).await;
                            let _ = comm.recv(1, 2).await;
                        } else {
                            let _ = comm.recv(0, 1).await;
                            comm.send(0, 2, i, 64).await;
                        }
                    }
                });
            }
            sim.run().expect("no deadlock")
        })
    });

    g.bench_function("allgather_32_ranks", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let world = World::new(&sim, 32, MpiConfig::default());
            for rank in 0..32 {
                let comm = world.comm(rank);
                sim.spawn(format!("r{rank}"), async move {
                    for _ in 0..5 {
                        let v = comm.allgather(rank as u64, 64).await;
                        assert_eq!(v.len(), 32);
                    }
                });
            }
            sim.run().expect("no deadlock")
        })
    });

    g.bench_function("rendezvous_64_large_sends", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let world = World::new(&sim, 2, MpiConfig::default());
            for rank in 0..2 {
                let comm = world.comm(rank);
                sim.spawn(format!("r{rank}"), async move {
                    for _ in 0..64 {
                        if comm.rank() == 0 {
                            comm.send(1, 1, (), 256 * 1024).await;
                        } else {
                            let _ = comm.recv(0, 1).await;
                        }
                    }
                });
            }
            sim.run().expect("no deadlock")
        })
    });

    g.finish();
}

fn bench_pvfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("pvfs-model");
    let scattered: Vec<Region> = (0..512).map(|i| Region::new(i * 9000, 4000)).collect();

    g.bench_function("contiguous_16MiB", |b| {
        b.iter_batched(
            || {
                let sim = Sim::new();
                let (fs, client) = FileSystem::standalone(
                    &sim,
                    PvfsConfig::default(),
                    s3a_net::NetConfig::default(),
                );
                (sim, fs, client)
            },
            |(sim, fs, client)| {
                let fh = fs.open("out");
                sim.spawn("w", async move {
                    fh.write_contiguous(client, 0, 16 * 1024 * 1024)
                        .await
                        .unwrap();
                });
                sim.run().expect("no deadlock")
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("list_write_512_regions", |b| {
        b.iter_batched(
            || {
                let sim = Sim::new();
                let (fs, client) = FileSystem::standalone(
                    &sim,
                    PvfsConfig::default(),
                    s3a_net::NetConfig::default(),
                );
                (sim, fs, client, scattered.clone())
            },
            |(sim, fs, client, regions)| {
                let fh = fs.open("out");
                sim.spawn("w", async move {
                    fh.write_regions(client, &regions).await.unwrap();
                    fh.sync(client).await.unwrap();
                });
                sim.run().expect("no deadlock")
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("parallel_16_clients", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let cfg = PvfsConfig::default();
            let fabric = Rc::new(Fabric::new(16 + cfg.servers, s3a_net::NetConfig::default()));
            let fs = FileSystem::new(&sim, cfg, fabric, 16);
            for cl in 0..16usize {
                let fh = fs.open("out");
                sim.spawn(format!("c{cl}"), async move {
                    let regions: Vec<Region> = (0..64)
                        .map(|i| Region::new((i * 16 + cl as u64) * 5000, 5000))
                        .collect();
                    fh.write_regions(s3a_net::EndpointId(cl), &regions)
                        .await
                        .unwrap();
                });
            }
            sim.run().expect("no deadlock")
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engine, bench_mpi, bench_pvfs
}
criterion_main!(benches);
