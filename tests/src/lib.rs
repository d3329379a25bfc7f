//! Shared fixtures for the cross-crate integration tests.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::reactor::{serve_with_signal, shutdown_pair, ReactorConfig, Shutdown};
use pm_engine::EngineService;
use pm_model::UserId;
use pm_porder::Preference;

/// A small but non-trivial movie-like dataset used by several tests.
pub fn small_movie_dataset(seed: u64) -> Dataset {
    let profile = DatasetProfile::movie()
        .with_users(20)
        .with_objects(200)
        .with_interactions(50);
    Dataset::generate(&profile, seed)
}

/// A small publication-like dataset.
pub fn small_publication_dataset(seed: u64) -> Dataset {
    let profile = DatasetProfile::publication()
        .with_users(16)
        .with_objects(180)
        .with_interactions(40);
    Dataset::generate(&profile, seed)
}

/// Wraps every user into its own singleton cluster (virtual preference =
/// the user's own preference).
pub fn singleton_clusters(preferences: &[Preference]) -> Vec<(Vec<UserId>, Preference)> {
    preferences
        .iter()
        .enumerate()
        .map(|(i, p)| (vec![UserId::from(i)], p.clone()))
        .collect()
}

/// Puts all users into one cluster whose virtual preference is their exact
/// common preference relation.
pub fn one_cluster(preferences: &[Preference]) -> Vec<(Vec<UserId>, Preference)> {
    vec![(
        (0..preferences.len()).map(UserId::from).collect(),
        Preference::common_of(preferences.iter()),
    )]
}

/// A reactor-served engine on an ephemeral loopback port. The reactor runs
/// on a thread with a name unique in the process, and the server shuts
/// down and joins it on drop, so tests leak neither threads nor ports.
pub struct TestServer {
    /// The bound address.
    pub addr: SocketAddr,
    thread_name: String,
    shutdown: Shutdown,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    /// Serves `service` with `config` until the server is dropped.
    pub fn spawn(service: Arc<EngineService>, config: ReactorConfig) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local address");
        let (shutdown, signal) = shutdown_pair().expect("shutdown pair");
        // Linux keeps 15 bytes of a thread name: room for 9999 servers.
        let thread_name = format!("pm-reactor-{}", NEXT.fetch_add(1, Ordering::Relaxed));
        let thread = std::thread::Builder::new()
            .name(thread_name.clone())
            .spawn(move || serve_with_signal(listener, service, config, signal))
            .expect("spawn reactor thread");
        Self {
            addr,
            thread_name,
            shutdown,
            thread: Some(thread),
        }
    }

    /// Live threads of this process named like this server's reactor: the
    /// reactor itself plus every thread it spawned, because a new Linux
    /// thread inherits its creator's name (Rust names only threads built
    /// with a name).
    #[cfg(target_os = "linux")]
    pub fn reactor_threads(&self) -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("list /proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == self.thread_name)
            .count()
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_produce_expected_sizes() {
        let movie = small_movie_dataset(1);
        assert_eq!(movie.num_users(), 20);
        assert_eq!(movie.num_objects(), 200);
        let publication = small_publication_dataset(1);
        assert_eq!(publication.num_users(), 16);
        let singles = singleton_clusters(&movie.preferences);
        assert_eq!(singles.len(), 20);
        let one = one_cluster(&movie.preferences);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].0.len(), 20);
    }
}
