//! The Modified Andrew Benchmark (`[Ousterhout90]`'s variant of the CMU
//! Andrew file-system benchmark).
//!
//! Five phases over a ~70-file, ~200 KB source tree:
//!
//! 1. **MakeDir** — recreate the directory tree;
//! 2. **Copy** — copy every source file into it;
//! 3. **ScanDir** — stat every file (recursive `ls -l`);
//! 4. **ReadAll** — read every file (`grep -r`);
//! 5. **Make** — compile the C sources and link.
//!
//! The paper reports phases I–IV together and phase V separately
//! (Tables 2 and 4), plus the per-procedure RPC counts (Table 3). On a
//! MicroVAXII almost everything is CPU-bound, which is why the RPC
//! counts are the more interesting instrument; the DS3100 runs expose
//! the server differences (Table 4).

use renofs::client::{CResult, ClientFs};
#[cfg(test)]
use renofs::proto::NfsProc;
use renofs::syscalls::Syscalls;
use renofs::RpcCounts;
use renofs_sim::{Rng, SimDuration, SimTime};
use renofs_vfs::MemFs;

/// The synthetic source tree.
#[derive(Clone, Debug)]
pub struct AndrewSpec {
    /// Directories, parent-first, relative to the tree root.
    pub dirs: Vec<String>,
    /// `(path, bytes, is_c_source)` for every file.
    pub files: Vec<(String, usize, bool)>,
    /// CPU cost to compile one byte of C source (MicroVAXII time).
    pub compile_cpu_per_byte: SimDuration,
}

impl AndrewSpec {
    /// The standard tree: 4 top-level directories, 17 C files and 53
    /// supporting files, ~200 KB total.
    pub fn standard() -> Self {
        let mut rng = Rng::new(0xA17D);
        let mut dirs = Vec::new();
        let mut files = Vec::new();
        let tops = ["cmds", "lib", "sys", "doc"];
        for top in &tops {
            dirs.push(top.to_string());
        }
        // Subdirectories.
        for top in &tops {
            for s in 0..3 {
                dirs.push(format!("{top}/sub{s}"));
            }
        }
        let mut c_files = 0;
        let mut total = 0usize;
        let mut i = 0;
        while files.len() < 70 {
            let dir = &dirs[rng.index(dirs.len())];
            let is_c = c_files < 17 && rng.chance(0.3);
            let (ext, size) = if is_c {
                c_files += 1;
                ("c", 2000 + rng.gen_range(0, 6000) as usize)
            } else if rng.chance(0.4) {
                ("h", 500 + rng.gen_range(0, 2000) as usize)
            } else {
                ("txt", 800 + rng.gen_range(0, 5000) as usize)
            };
            files.push((format!("{dir}/file{i:03}.{ext}"), size, is_c));
            total += size;
            i += 1;
        }
        debug_assert!(
            total > 100_000 && total < 400_000,
            "tree ~200KB, got {total}"
        );
        AndrewSpec {
            dirs,
            files,
            // ~17 C files * ~5 KB * this rate ~ 1100s of phase-V CPU on
            // a MicroVAXII — the paper's scale.
            compile_cpu_per_byte: SimDuration::from_micros(11_000),
        }
    }

    /// A reduced tree for fast tests.
    pub fn small() -> Self {
        let mut spec = Self::standard();
        spec.files.truncate(16);
        spec.compile_cpu_per_byte = SimDuration::from_micros(200);
        spec
    }

    /// Total source bytes.
    pub fn total_bytes(&self) -> usize {
        self.files.iter().map(|(_, s, _)| s).sum()
    }
}

/// Benchmark results.
#[derive(Clone, Debug)]
pub struct AndrewReport {
    /// Durations of phases I–V.
    pub phases: [SimDuration; 5],
    /// RPC counts accumulated over the whole run.
    pub counts: RpcCounts,
}

impl AndrewReport {
    /// Phases I–IV total, as the paper reports.
    pub fn phases_1_to_4(&self) -> SimDuration {
        self.phases[0] + self.phases[1] + self.phases[2] + self.phases[3]
    }

    /// Phase V.
    pub fn phase_5(&self) -> SimDuration {
        self.phases[4]
    }
}

/// Loads the source tree into the server filesystem under `/src` (test
/// setup, out of band).
pub fn preload_andrew_source(fs: &mut MemFs, spec: &AndrewSpec) {
    let t0 = SimTime::ZERO;
    let root = fs.root();
    let src = fs.mkdir(root, "src", 0o755, t0).expect("fresh tree");
    let mut dir_of = std::collections::HashMap::new();
    dir_of.insert(String::new(), src);
    for d in &spec.dirs {
        let (parent, name) = match d.rfind('/') {
            Some(i) => (d[..i].to_string(), &d[i + 1..]),
            None => (String::new(), d.as_str()),
        };
        let p = dir_of[&parent];
        let id = fs.mkdir(p, name, 0o755, t0).expect("mkdir");
        dir_of.insert(d.clone(), id);
    }
    for (path, size, _) in &spec.files {
        let (dir, name) = match path.rfind('/') {
            Some(i) => (path[..i].to_string(), &path[i + 1..]),
            None => (String::new(), path.as_str()),
        };
        let p = dir_of[&dir];
        let id = fs.create(p, name, 0o644, t0).expect("create");
        let data: Vec<u8> = (0..*size).map(|i| (i * 31 % 251) as u8).collect();
        fs.write(id, 0, &data, t0).expect("fill");
    }
}

/// `prefix` then `rel`, rendered into `buf` — one reused path buffer
/// for the whole run.
fn path<'a>(buf: &'a mut String, prefix: &str, rel: &str) -> &'a str {
    buf.clear();
    buf.push_str(prefix);
    buf.push_str(rel);
    buf
}

/// The object file `cc -c` makes of the source `rel`: `rel` with every
/// `.c` turned into `.o`, under `/andrew/`, rendered into `buf`.
fn object_path<'a>(buf: &'a mut String, rel: &str) -> &'a str {
    buf.clear();
    buf.push_str("/andrew/");
    for (i, part) in rel.split(".c").enumerate() {
        if i > 0 {
            buf.push_str(".o");
        }
        buf.push_str(part);
    }
    buf
}

/// Runs the five phases against a mounted client whose server exports
/// the preloaded `/src` tree. Returns timings and RPC counts.
///
/// Paths are rendered into one reused string and file data read into one
/// reused buffer, the way `cp` and `grep` use a stack buffer.
pub fn run_andrew<S: Syscalls>(fs: &mut ClientFs<S>, spec: &AndrewSpec) -> CResult<AndrewReport> {
    let mut phases = [SimDuration::ZERO; 5];
    let t0 = fs.sys().now();
    let mut p = String::new();
    let mut data = Vec::new();

    // Phase I: make the directory tree under /andrew.
    fs.mkdir("/andrew")?;
    for d in &spec.dirs {
        fs.mkdir(path(&mut p, "/andrew/", d))?;
    }
    let t1 = fs.sys().now();
    phases[0] = t1.since(t0);

    // Phase II: copy every file from /src to /andrew.
    for (rel, size, _) in &spec.files {
        let sfh = fs.open(path(&mut p, "/src/", rel), false, false)?;
        data.clear();
        fs.read_into(sfh, 0, *size as u32, &mut data)?;
        fs.close(sfh)?;
        let dfh = fs.open(path(&mut p, "/andrew/", rel), true, false)?;
        // Copy in stdio-sized chunks, as cp(1) would.
        for (i, chunk) in data.chunks(4096).enumerate() {
            fs.write(dfh, (i * 4096) as u32, chunk)?;
        }
        fs.close(dfh)?;
    }
    let t2 = fs.sys().now();
    phases[1] = t2.since(t1);

    // Phase III: stat every file and directory (ls -lR), three times —
    // the original walks the tree repeatedly through `find`, slowly
    // enough that attribute caches expire between passes.
    for pass in 0..3 {
        if pass > 0 {
            fs.sys().sleep(SimDuration::from_secs(6));
        }
        fs.readdir("/andrew")?;
        for d in &spec.dirs {
            fs.readdir(path(&mut p, "/andrew/", d))?;
        }
        for (rel, _, _) in &spec.files {
            fs.stat(path(&mut p, "/andrew/", rel))?;
        }
    }
    let t3 = fs.sys().now();
    phases[2] = t3.since(t2);

    // Phase IV: read every file completely (grep -r), twice, far enough
    // apart that attributes must be revalidated.
    for pass in 0..2 {
        if pass > 0 {
            fs.sys().sleep(SimDuration::from_secs(6));
        }
        for (rel, size, _) in &spec.files {
            let fh = fs.open(path(&mut p, "/andrew/", rel), false, false)?;
            data.clear();
            fs.read_into(fh, 0, *size as u32, &mut data)?;
            fs.close(fh)?;
        }
    }
    let t4 = fs.sys().now();
    phases[3] = t4.since(t3);

    // Phase V: compile each C file (read source + headers, burn CPU,
    // write the object), then link.
    let headers: Vec<&(String, usize, bool)> = spec
        .files
        .iter()
        .filter(|(p, _, _)| p.ends_with(".h"))
        .collect();
    for (rel, size, is_c) in &spec.files {
        if !is_c {
            continue;
        }
        let fh = fs.open(path(&mut p, "/andrew/", rel), false, false)?;
        data.clear();
        fs.read_into(fh, 0, *size as u32, &mut data)?;
        fs.close(fh)?;
        // Each compile re-reads a few headers.
        for h in headers.iter().take(6) {
            let hfh = fs.open(path(&mut p, "/andrew/", &h.0), false, false)?;
            data.clear();
            fs.read_into(hfh, 0, h.1 as u32, &mut data)?;
            fs.close(hfh)?;
        }
        fs.sys()
            .charge_cpu(spec.compile_cpu_per_byte.mul_f64(*size as f64));
        let ofh = fs.open(object_path(&mut p, rel), true, true)?;
        data.clear();
        data.resize(*size, 0x7F);
        fs.write(ofh, 0, &data)?;
        fs.close(ofh)?;
        // The object header is patched after assembly (symbol table
        // offsets), re-dirtying the first block. With close/open
        // consistency each close pushes again; a noconsist mount
        // coalesces both generations into one eventual write.
        let ofh = fs.open(object_path(&mut p, rel), false, false)?;
        fs.write(ofh, 0, &[0x7Eu8; 32])?;
        fs.close(ofh)?;
    }
    // Link: read every object, write the program image.
    let mut image = 0usize;
    for (rel, size, _) in spec.files.iter().filter(|(_, _, is_c)| *is_c) {
        let fh = fs.open(object_path(&mut p, rel), false, false)?;
        data.clear();
        fs.read_into(fh, 0, *size as u32, &mut data)?;
        fs.close(fh)?;
        image += size;
    }
    if image > 0 {
        fs.sys()
            .charge_cpu(spec.compile_cpu_per_byte.mul_f64(image as f64 * 0.15));
        let out = fs.open("/andrew/a.out", true, true)?;
        data.clear();
        data.resize(image, 0x42);
        fs.write(out, 0, &data)?;
        fs.close(out)?;
    }
    // The benchmark ends with sync(1), which is also what finally
    // pushes a noconsist mount's delayed writes.
    fs.sync()?;
    let t5 = fs.sys().now();
    phases[4] = t5.since(t4);

    Ok(AndrewReport {
        phases,
        counts: fs.counts(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use renofs::client::ClientConfig;
    use renofs::server::{NfsServer, ServerConfig};
    use renofs::syscalls::Loopback;

    fn loopback_client(cfg: ClientConfig) -> ClientFs<Loopback> {
        let mut server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
        preload_andrew_source(server.fs_mut(), &AndrewSpec::small());
        let root = server.root_handle();
        ClientFs::mount(Loopback::new(server), cfg, root, "uvax1")
    }

    #[test]
    fn spec_shape() {
        let spec = AndrewSpec::standard();
        assert_eq!(spec.files.len(), 70);
        assert_eq!(spec.files.iter().filter(|(_, _, c)| *c).count(), 17);
        assert!(spec.total_bytes() > 100_000);
        assert!(spec.dirs.len() >= 16);
    }

    #[test]
    fn phases_run_and_produce_counts() {
        let mut fs = loopback_client(ClientConfig::reno());
        let report = run_andrew(&mut fs, &AndrewSpec::small()).unwrap();
        assert!(report.phases.iter().all(|p| !p.is_zero()));
        assert!(report.counts.count(NfsProc::Lookup) > 10);
        assert!(report.counts.count(NfsProc::Read) > 5);
        assert!(report.counts.count(NfsProc::Write) > 5);
        assert!(report.counts.count(NfsProc::Getattr) > 5);
    }

    #[test]
    fn table3_orderings_hold_on_loopback() {
        let spec = AndrewSpec::small();
        let reno = run_andrew(&mut loopback_client(ClientConfig::reno()), &spec).unwrap();
        let noconsist =
            run_andrew(&mut loopback_client(ClientConfig::reno_noconsist()), &spec).unwrap();
        let ultrix = run_andrew(&mut loopback_client(ClientConfig::ultrix()), &spec).unwrap();
        // Lookups: Ultrix (no name cache) must do far more.
        assert!(
            ultrix.counts.count(NfsProc::Lookup) > reno.counts.count(NfsProc::Lookup) * 3 / 2,
            "ultrix {} vs reno {}",
            ultrix.counts.count(NfsProc::Lookup),
            reno.counts.count(NfsProc::Lookup)
        );
        // Reads: Reno re-reads after its own writes; noconsist does not.
        assert!(
            reno.counts.count(NfsProc::Read) > noconsist.counts.count(NfsProc::Read),
            "reno {} vs noconsist {}",
            reno.counts.count(NfsProc::Read),
            noconsist.counts.count(NfsProc::Read)
        );
        // Writes: noconsist coalesces without push-on-close.
        assert!(
            reno.counts.count(NfsProc::Write) > noconsist.counts.count(NfsProc::Write),
            "reno {} vs noconsist {}",
            reno.counts.count(NfsProc::Write),
            noconsist.counts.count(NfsProc::Write)
        );
        // Ultrix writes more than Reno (no dirty-region coalescing is
        // approximated; at minimum not fewer than noconsist).
        assert!(ultrix.counts.count(NfsProc::Write) >= noconsist.counts.count(NfsProc::Write));
    }
}
