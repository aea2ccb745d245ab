use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use blockdev::BlockDevice;
use parking_lot::{Mutex, RwLock};
use simclock::{ActorClock, SimTime};

use crate::path::parent_of;
use crate::{
    normalize_path, Fd, FdTable, FileSystem, IoError, IoResult, KernelCosts, Metadata, OpenFlags,
    PageCache, PageCacheConfig,
};

/// Tuning of the simulated Ext4.
#[derive(Debug, Clone)]
pub struct Ext4Profile {
    /// Kernel path costs.
    pub costs: KernelCosts,
    /// Page-cache configuration.
    pub cache: PageCacheConfig,
    /// CPU + sequential-journal-write cost of one jbd2 transaction commit
    /// (the device flush is charged separately through the device).
    pub journal_commit: SimTime,
    /// Pages per extent slab; file pages map onto contiguous device slabs so
    /// sequential file I/O stays sequential on the device.
    pub slab_pages: u64,
}

impl Default for Ext4Profile {
    fn default() -> Self {
        Ext4Profile {
            costs: KernelCosts::default_model(),
            cache: PageCacheConfig::default(),
            journal_commit: SimTime::from_micros(15),
            slab_pages: 256,
        }
    }
}

#[derive(Debug)]
struct Ext4Inode {
    ino: u64,
    size: AtomicU64,
    /// slab index -> device base offset
    slabs: Mutex<HashMap<u64, u64>>,
    meta_dirty: AtomicBool,
}

#[derive(Clone)]
struct Ext4Fd {
    inode: Arc<Ext4Inode>,
    flags: OpenFlags,
}

/// Simulated Ext4 over any block device.
///
/// Reproduces the cost structure of the kernel's default file system as used
/// throughout the paper's evaluation (Table IV rows "SSD" and
/// "DM-WriteCache"): a volatile write-back page cache in front of the device,
/// lazy extent allocation in contiguous slabs, and a jbd2-style journal whose
/// commit (plus a device flush) is what makes `fsync` expensive.
///
/// Instantiate it over an [`SsdDevice`](blockdev::SsdDevice) for the plain
/// SSD baseline or over a [`DmWriteCacheDev`](blockdev::DmWriteCacheDev) for
/// the DM-WriteCache baseline — the file-system code is identical, exactly as
/// in the paper.
pub struct Ext4 {
    name: String,
    dev: Arc<dyn BlockDevice>,
    profile: Ext4Profile,
    cache: PageCache,
    files: RwLock<HashMap<String, Arc<Ext4Inode>>>,
    fds: FdTable<Ext4Fd>,
    next_ino: AtomicU64,
    alloc_next: AtomicU64,
    free_slabs: Mutex<Vec<u64>>,
    journal_commits: AtomicU64,
    dev_id: u64,
    /// Held from taking dirty pages out of the cache until they are on the
    /// device, by `fsync` and `sync`: a concurrent `fsync` must not return
    /// while pages another one took are still in flight, and an older copy
    /// of a page must not reach the device after a newer one.
    writeback: Mutex<()>,
}

impl std::fmt::Debug for Ext4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ext4")
            .field("name", &self.name)
            .field("files", &self.files.read().len())
            .finish()
    }
}

impl Ext4 {
    /// Creates an Ext4 instance named `name` over `dev`.
    pub fn new(name: impl Into<String>, dev: Arc<dyn BlockDevice>, profile: Ext4Profile) -> Self {
        Ext4 {
            name: name.into(),
            dev,
            cache: PageCache::new(profile.cache.clone()),
            profile,
            files: RwLock::new(HashMap::new()),
            fds: FdTable::new(),
            next_ino: AtomicU64::new(1),
            alloc_next: AtomicU64::new(0),
            free_slabs: Mutex::new(Vec::new()),
            journal_commits: AtomicU64::new(0),
            dev_id: 0xE4,
            writeback: Mutex::new(()),
        }
    }

    /// Returns an inode's slabs to the allocator (unlink / replace).
    fn reclaim_slabs(&self, inode: &Ext4Inode) {
        let mut slabs = inode.slabs.lock();
        self.free_slabs.lock().extend(slabs.values().copied());
        slabs.clear();
    }

    /// Number of jbd2 commits performed so far.
    pub fn journal_commit_count(&self) -> u64 {
        self.journal_commits.load(Ordering::Relaxed)
    }

    /// The page cache (for stats inspection).
    pub fn page_cache(&self) -> &PageCache {
        &self.cache
    }

    /// The backing device.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.dev
    }

    fn page_size(&self) -> u64 {
        self.profile.cache.page_size as u64
    }

    fn slab_bytes(&self) -> u64 {
        self.profile.slab_pages * self.page_size()
    }

    /// Maps a file page to its device offset, allocating a slab on demand.
    ///
    /// # Errors
    ///
    /// [`IoError::NoSpace`] when the device is exhausted.
    fn map_alloc(&self, inode: &Ext4Inode, page: u64) -> IoResult<u64> {
        let slab = page / self.profile.slab_pages;
        let mut slabs = inode.slabs.lock();
        if let Some(&base) = slabs.get(&slab) {
            return Ok(base + (page % self.profile.slab_pages) * self.page_size());
        }
        let base = match self.free_slabs.lock().pop() {
            Some(base) => base,
            None => {
                let base = self.alloc_next.fetch_add(self.slab_bytes(), Ordering::Relaxed);
                if base + self.slab_bytes() > self.dev.capacity() {
                    return Err(IoError::NoSpace);
                }
                base
            }
        };
        slabs.insert(slab, base);
        inode.meta_dirty.store(true, Ordering::Release);
        Ok(base + (page % self.profile.slab_pages) * self.page_size())
    }

    /// Device offset of `page` if a slab exists (reads of sparse holes skip
    /// the device).
    fn map_existing(&self, inode: &Ext4Inode, page: u64) -> Option<u64> {
        let slab = page / self.profile.slab_pages;
        inode
            .slabs
            .lock()
            .get(&slab)
            .map(|&base| base + (page % self.profile.slab_pages) * self.page_size())
    }

    fn lookup(&self, path: &str) -> Option<Arc<Ext4Inode>> {
        self.files.read().get(path).cloned()
    }

    fn is_dir(&self, path: &str) -> bool {
        if path == "/" {
            return true;
        }
        let prefix = format!("{path}/");
        self.files.read().keys().any(|k| k.starts_with(&prefix))
    }

    fn writeback_evicted(&self, evicted: Vec<crate::pagecache::EvictedPage>, clock: &ActorClock) {
        for e in evicted {
            // The inode may have been unlinked concurrently; its pages are
            // dropped from the cache then, so a lookup miss means skip.
            let target = {
                let files = self.files.read();
                files.values().find(|i| i.ino == e.ino).cloned()
            };
            if let Some(inode) = target {
                if let Ok(dev_off) = self.map_alloc(&inode, e.page) {
                    self.dev.write(dev_off, &e.data, clock);
                }
            }
        }
    }

    fn journal_commit(&self, clock: &ActorClock) {
        clock.advance(self.profile.journal_commit);
        self.dev.flush(clock);
        self.journal_commits.fetch_add(1, Ordering::Relaxed);
    }

    fn fsync_inode(&self, inode: &Ext4Inode, clock: &ActorClock) -> IoResult<()> {
        let _writeback = self.writeback.lock();
        let dirty = self.cache.take_dirty(inode.ino);
        let mut targets = Vec::with_capacity(dirty.len());
        for (page, data) in dirty {
            targets.push((self.map_alloc(inode, page)?, data));
        }
        // Elevator: issue writebacks in device-offset order.
        targets.sort_by_key(|(off, _)| *off);
        for (off, data) in targets {
            self.dev.write(off, &data, clock);
        }
        self.journal_commit(clock);
        inode.meta_dirty.store(false, Ordering::Release);
        Ok(())
    }

    fn read_page_from_device(&self, inode: &Ext4Inode, page: u64, clock: &ActorClock) -> Vec<u8> {
        let mut buf = vec![0u8; self.page_size() as usize];
        if let Some(off) = self.map_existing(inode, page) {
            self.dev.read(off, &mut buf, clock);
        }
        buf
    }

    fn write_direct(
        &self,
        inode: &Ext4Inode,
        data: &[u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<usize> {
        let ps = self.page_size();
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = off + pos as u64;
            let page = abs / ps;
            let in_page = (abs % ps) as usize;
            let n = (ps as usize - in_page).min(data.len() - pos);
            let dev_off = self.map_alloc(inode, page)?;
            if n == ps as usize {
                self.dev.write(dev_off, &data[pos..pos + n], clock);
            } else {
                // Unaligned O_DIRECT tail: device-level read-modify-write.
                let mut old = vec![0u8; ps as usize];
                self.dev.read(dev_off, &mut old, clock);
                old[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
                self.dev.write(dev_off, &old, clock);
            }
            // Keep the page cache coherent, as the kernel invalidates/updates
            // overlapping cached pages on direct I/O.
            self.cache.update(inode.ino, page, in_page, &data[pos..pos + n]);
            pos += n;
        }
        Ok(data.len())
    }

    fn write_buffered(
        &self,
        inode: &Ext4Inode,
        data: &[u8],
        off: u64,
        clock: &ActorClock,
    ) -> IoResult<usize> {
        let ps = self.page_size();
        let size = inode.size.load(Ordering::Acquire);
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = off + pos as u64;
            let page = abs / ps;
            let in_page = (abs % ps) as usize;
            let n = (ps as usize - in_page).min(data.len() - pos);
            clock.advance(self.profile.costs.page_lookup);
            if !self.cache.update(inode.ino, page, in_page, &data[pos..pos + n]) {
                // Page miss. A full overwrite or a page entirely beyond EOF
                // needs no device read.
                let whole = n == ps as usize;
                let beyond_eof = page * ps >= size;
                let mut fresh = if whole || beyond_eof {
                    vec![0u8; ps as usize]
                } else {
                    self.read_page_from_device(inode, page, clock)
                };
                fresh[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
                let evicted = self.cache.insert(inode.ino, page, &fresh, true);
                self.writeback_evicted(evicted, clock);
            }
            pos += n;
        }
        clock.advance(self.profile.costs.copy(data.len() as u64));
        Ok(data.len())
    }
}

impl FileSystem for Ext4 {
    fn name(&self) -> &str {
        &self.name
    }

    fn open(&self, path: &str, flags: OpenFlags, clock: &ActorClock) -> IoResult<Fd> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let path = normalize_path(path);
        let inode = match self.lookup(&path) {
            Some(inode) => {
                if flags.contains(OpenFlags::CREATE) && flags.contains(OpenFlags::EXCL) {
                    return Err(IoError::AlreadyExists(path));
                }
                if flags.contains(OpenFlags::TRUNC) && flags.writable() {
                    inode.size.store(0, Ordering::Release);
                    self.cache.drop_inode(inode.ino);
                    inode.meta_dirty.store(true, Ordering::Release);
                }
                inode
            }
            None => {
                if !flags.contains(OpenFlags::CREATE) {
                    return Err(IoError::NotFound(path));
                }
                let inode = Arc::new(Ext4Inode {
                    ino: self.next_ino.fetch_add(1, Ordering::Relaxed),
                    size: AtomicU64::new(0),
                    slabs: Mutex::new(HashMap::new()),
                    meta_dirty: AtomicBool::new(true),
                });
                self.files.write().insert(path, Arc::clone(&inode));
                inode
            }
        };
        Ok(self.fds.insert(Ext4Fd { inode, flags }))
    }

    fn close(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall);
        self.fds.remove(fd).map(|_| ())
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let entry = self.fds.get(fd)?;
        if !entry.flags.readable() {
            return Err(IoError::PermissionDenied("fd opened write-only".into()));
        }
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let inode = &entry.inode;
        let size = inode.size.load(Ordering::Acquire);
        if off >= size {
            return Ok(0);
        }
        let total = buf.len().min((size - off) as usize);
        let ps = self.page_size();
        let mut pos = 0usize;
        while pos < total {
            let abs = off + pos as u64;
            let page = abs / ps;
            let in_page = (abs % ps) as usize;
            let n = (ps as usize - in_page).min(total - pos);
            clock.advance(self.profile.costs.page_lookup);
            if !self.cache.read(inode.ino, page, in_page, &mut buf[pos..pos + n]) {
                let fresh = self.read_page_from_device(inode, page, clock);
                buf[pos..pos + n].copy_from_slice(&fresh[in_page..in_page + n]);
                let evicted = self.cache.insert(inode.ino, page, &fresh, false);
                self.writeback_evicted(evicted, clock);
            }
            pos += n;
        }
        clock.advance(self.profile.costs.copy(total as u64));
        Ok(total)
    }

    fn pwrite(&self, fd: Fd, data: &[u8], off: u64, clock: &ActorClock) -> IoResult<usize> {
        let entry = self.fds.get(fd)?;
        if !entry.flags.writable() {
            return Err(IoError::PermissionDenied("fd opened read-only".into()));
        }
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let inode = &entry.inode;
        let n = if entry.flags.contains(OpenFlags::DIRECT) {
            self.write_direct(inode, data, off, clock)?
        } else {
            self.write_buffered(inode, data, off, clock)?
        };
        let end = off + n as u64;
        if inode.size.fetch_max(end, Ordering::AcqRel) < end {
            inode.meta_dirty.store(true, Ordering::Release);
        }
        if entry.flags.contains(OpenFlags::SYNC) {
            self.fsync_inode(inode, clock)?;
        }
        Ok(n)
    }

    fn fsync(&self, fd: Fd, clock: &ActorClock) -> IoResult<()> {
        let entry = self.fds.get(fd)?;
        clock.advance(self.profile.costs.syscall);
        self.fsync_inode(&entry.inode, clock)
    }

    fn ftruncate(&self, fd: Fd, len: u64, clock: &ActorClock) -> IoResult<()> {
        let entry = self.fds.get(fd)?;
        if !entry.flags.writable() {
            return Err(IoError::PermissionDenied("fd opened read-only".into()));
        }
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let old = entry.inode.size.swap(len, Ordering::AcqRel);
        if len < old {
            // Invalidate cached pages wholly beyond the new end.
            self.cache.drop_inode(entry.inode.ino);
        }
        entry.inode.meta_dirty.store(true, Ordering::Release);
        Ok(())
    }

    fn fstat(&self, fd: Fd, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.profile.costs.syscall);
        let entry = self.fds.get(fd)?;
        Ok(Metadata {
            dev: self.dev_id,
            ino: entry.inode.ino,
            size: entry.inode.size.load(Ordering::Acquire),
            is_dir: false,
        })
    }

    fn stat(&self, path: &str, clock: &ActorClock) -> IoResult<Metadata> {
        clock.advance(self.profile.costs.syscall);
        let path = normalize_path(path);
        if let Some(inode) = self.lookup(&path) {
            return Ok(Metadata {
                dev: self.dev_id,
                ino: inode.ino,
                size: inode.size.load(Ordering::Acquire),
                is_dir: false,
            });
        }
        if self.is_dir(&path) {
            return Ok(Metadata { dev: self.dev_id, ino: 0, size: 0, is_dir: true });
        }
        Err(IoError::NotFound(path))
    }

    fn unlink(&self, path: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let path = normalize_path(path);
        let inode = self.files.write().remove(&path).ok_or(IoError::NotFound(path))?;
        self.cache.drop_inode(inode.ino);
        self.reclaim_slabs(&inode);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let from = normalize_path(from);
        let to = normalize_path(to);
        let mut files = self.files.write();
        let inode = files.remove(&from).ok_or(IoError::NotFound(from))?;
        if let Some(replaced) = files.insert(to, inode) {
            self.cache.drop_inode(replaced.ino);
            self.reclaim_slabs(&replaced);
        }
        Ok(())
    }

    fn list_dir(&self, dir: &str, clock: &ActorClock) -> IoResult<Vec<String>> {
        clock.advance(self.profile.costs.syscall + self.profile.costs.fs_overhead);
        let dir = normalize_path(dir);
        let mut out: Vec<String> =
            self.files.read().keys().filter(|k| parent_of(k) == dir).cloned().collect();
        out.sort();
        Ok(out)
    }

    fn sync(&self, clock: &ActorClock) -> IoResult<()> {
        clock.advance(self.profile.costs.syscall);
        let _writeback = self.writeback.lock();
        let dirty = self.cache.take_all_dirty();
        let by_ino: Vec<Arc<Ext4Inode>> = self.files.read().values().cloned().collect();
        for e in dirty {
            if let Some(inode) = by_ino.iter().find(|i| i.ino == e.ino) {
                let off = self.map_alloc(inode, e.page)?;
                self.dev.write(off, &e.data, clock);
            }
        }
        self.journal_commit(clock);
        Ok(())
    }

    fn simulate_power_failure(&self) {
        // The page cache is volatile: every un-synced page is gone. Metadata
        // is assumed journaled (the namespace survives); the device keeps
        // whatever reached it.
        self.cache.drop_all();
    }

    fn synchronous_durability(&self) -> bool {
        false // requires O_DIRECT|O_SYNC per fd, not a design default
    }

    fn durable_linearizability(&self) -> bool {
        false // reads can observe page-cache data that is not yet durable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{SsdDevice, SsdProfile};

    fn fs() -> (ActorClock, Arc<SsdDevice>, Ext4) {
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        let ext4 =
            Ext4::new("ext4+ssd", Arc::clone(&ssd) as Arc<dyn BlockDevice>, Ext4Profile::default());
        (ActorClock::new(), ssd, ext4)
    }

    fn small_cache_fs(capacity_pages: usize) -> (ActorClock, Arc<SsdDevice>, Ext4) {
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600()));
        let profile = Ext4Profile {
            cache: PageCacheConfig { capacity_pages, ..PageCacheConfig::default() },
            ..Ext4Profile::default()
        };
        let ext4 = Ext4::new("ext4+ssd", Arc::clone(&ssd) as Arc<dyn BlockDevice>, profile);
        (ActorClock::new(), ssd, ext4)
    }

    #[test]
    fn write_read_round_trip_buffered() {
        let (c, _ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(fs.pwrite(fd, &data, 100, &c).unwrap(), data.len());
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.pread(fd, &mut buf, 100, &c).unwrap(), data.len());
        assert_eq!(buf, data);
    }

    #[test]
    fn buffered_write_touches_no_device_until_fsync() {
        let (c, ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[1u8; 8192], 0, &c).unwrap();
        assert_eq!(ssd.stats().snapshot().bytes_written, 0);
        fs.fsync(fd, &c).unwrap();
        let snap = ssd.stats().snapshot();
        assert_eq!(snap.bytes_written, 8192);
        assert!(snap.flushes >= 1);
    }

    #[test]
    fn fsync_write_combining() {
        let (c, ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        // 100 small writes into the same page combine into one device write.
        for i in 0..100u64 {
            fs.pwrite(fd, &[i as u8; 8], (i % 32) * 8, &c).unwrap();
        }
        fs.fsync(fd, &c).unwrap();
        assert_eq!(ssd.stats().snapshot().bytes_written, 4096);
    }

    #[test]
    fn o_sync_writes_reach_the_device_immediately() {
        let (c, ssd, fs) = fs();
        let fd = fs
            .open("/f", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::SYNC, &c)
            .unwrap();
        fs.pwrite(fd, &[7u8; 4096], 0, &c).unwrap();
        let snap = ssd.stats().snapshot();
        assert_eq!(snap.bytes_written, 4096);
        assert!(snap.flushes >= 1);
    }

    #[test]
    fn o_direct_bypasses_page_cache() {
        let (c, ssd, fs) = fs();
        let fd = fs
            .open("/f", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::DIRECT, &c)
            .unwrap();
        fs.pwrite(fd, &[3u8; 4096], 0, &c).unwrap();
        assert_eq!(ssd.stats().snapshot().bytes_written, 4096);
        // Content is still readable (read goes to the device).
        let mut buf = [0u8; 4096];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(buf[0], 3);
    }

    #[test]
    fn crash_loses_unsynced_data_but_keeps_synced() {
        let (c, _ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[1u8; 4096], 0, &c).unwrap();
        fs.fsync(fd, &c).unwrap();
        fs.pwrite(fd, &[2u8; 4096], 0, &c).unwrap(); // not synced
        fs.simulate_power_failure();
        let mut buf = [0u8; 4096];
        fs.pread(fd, &mut buf, 0, &c).unwrap();
        assert_eq!(buf[0], 1, "synced version must survive, unsynced must not");
    }

    #[test]
    fn sequential_file_writes_are_sequential_on_device() {
        let (c, ssd, fs) = fs();
        let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        for i in 0..64u64 {
            fs.pwrite(fd, &[i as u8; 4096], i * 4096, &c).unwrap();
        }
        fs.fsync(fd, &c).unwrap();
        let snap = ssd.stats().snapshot();
        assert!(snap.seq_writes >= 60, "expected mostly sequential writeback, got {snap:?}");
    }

    #[test]
    fn eviction_throttles_buffered_writes_to_device() {
        let (c, ssd, fs) = small_cache_fs(16);
        let fd = fs.open("/big", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        for i in 0..256u64 {
            fs.pwrite(fd, &[i as u8; 4096], i * 4096, &c).unwrap();
        }
        assert!(
            ssd.stats().snapshot().bytes_written > 0,
            "page-cache pressure must force writeback"
        );
    }

    #[test]
    fn sparse_read_returns_zeroes_without_device_io() {
        let (c, ssd, fs) = fs();
        let fd = fs.open("/sparse", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, b"end", 1 << 20, &c).unwrap();
        let mut buf = [9u8; 64];
        fs.pread(fd, &mut buf, 4096, &c).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(ssd.stats().snapshot().bytes_read, 0);
    }

    #[test]
    fn journal_commits_happen_per_fsync() {
        let (c, _ssd, fs) = fs();
        let fd = fs.open("/j", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        for _ in 0..5 {
            fs.pwrite(fd, &[0u8; 512], 0, &c).unwrap();
            fs.fsync(fd, &c).unwrap();
        }
        assert_eq!(fs.journal_commit_count(), 5);
    }

    #[test]
    fn no_space_when_device_full() {
        let ssd = Arc::new(SsdDevice::new(SsdProfile::s4600().with_capacity(1 << 20)));
        let fs = Ext4::new("tiny", ssd as Arc<dyn BlockDevice>, Ext4Profile::default());
        let c = ActorClock::new();
        let fd = fs
            .open("/f", OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::DIRECT, &c)
            .unwrap();
        let res = (0..16u64)
            .map(|i| fs.pwrite(fd, &[0u8; 4096], i * (2 << 20), &c))
            .collect::<Result<Vec<_>, _>>();
        assert!(matches!(res, Err(IoError::NoSpace)));
    }

    #[test]
    fn truncate_then_read_is_bounded() {
        let (c, _ssd, fs) = fs();
        let fd = fs.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &c).unwrap();
        fs.pwrite(fd, &[5u8; 8192], 0, &c).unwrap();
        fs.ftruncate(fd, 100, &c).unwrap();
        let mut buf = [0u8; 8192];
        assert_eq!(fs.pread(fd, &mut buf, 0, &c).unwrap(), 100);
        assert_eq!(fs.fstat(fd, &c).unwrap().size, 100);
    }
}
