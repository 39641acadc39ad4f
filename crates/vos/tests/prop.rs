//! Property tests for the virtual OS: the in-memory filesystem agrees
//! with a reference model (also through kernel descriptors), and the
//! stream layer never loses or reorders bytes.

use std::collections::HashMap;
use std::time::Duration;

use proptest::prelude::*;
use vos::{Buf, Errno, MemFs, OpenMode, VirtualKernel};

#[derive(Clone, Debug)]
enum FsOp {
    WriteFile(u8, Vec<u8>),
    ReadFile(u8),
    Unlink(u8),
    Stat(u8),
    CreateNew(u8),
    List,
}

fn arb_fs_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        (0u8..6, proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(n, data)| FsOp::WriteFile(n, data)),
        (0u8..6).prop_map(FsOp::ReadFile),
        (0u8..6).prop_map(FsOp::Unlink),
        (0u8..6).prop_map(FsOp::Stat),
        (0u8..6).prop_map(FsOp::CreateNew),
        Just(FsOp::List),
    ]
}

/// One operation on a single file through kernel descriptors.
#[derive(Clone, Debug)]
enum FdOp {
    /// Read up to `n` bytes through the long-lived read handle.
    Read(usize),
    /// Write at the long-lived write handle's offset.
    Write(Vec<u8>),
    /// Open a fresh append handle, write, close.
    Append(Vec<u8>),
    /// Open a fresh write handle (truncating), close.
    Truncate,
    /// Open a fresh read handle and read the whole file.
    ReadAll,
}

fn arb_fd_op() -> impl Strategy<Value = FdOp> {
    prop_oneof![
        (0usize..24).prop_map(FdOp::Read),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(FdOp::Write),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(FdOp::Append),
        Just(FdOp::Truncate),
        Just(FdOp::ReadAll),
    ]
}

proptest! {
    /// Interleaved descriptor reads, writes, appends and truncates on one
    /// file match a `Vec<u8>` model, and every buffer a read returned
    /// keeps the bytes it had when it was returned.
    #[test]
    fn fd_ops_on_one_file_agree_with_vec_model(
        ops in proptest::collection::vec(arb_fd_op(), 0..60),
    ) {
        let kernel = VirtualKernel::new();
        kernel.fs().write_file("/f", b"seed").unwrap();
        let mut model = b"seed".to_vec();
        let reader = kernel.fs_open("/f", OpenMode::Read).unwrap();
        let mut read_off = 0usize;
        let writer = kernel.fs_open("/f", OpenMode::Append).unwrap();
        let mut write_off = model.len();
        let mut held: Vec<(Buf, Vec<u8>)> = Vec::new();
        for op in &ops {
            match op {
                FdOp::Read(n) => {
                    let got = kernel.read(reader, *n, None).unwrap();
                    let start = read_off.min(model.len());
                    let end = (start + n).min(model.len());
                    prop_assert_eq!(&got[..], &model[start..end]);
                    read_off = end;
                    held.push((got, model[start..end].to_vec()));
                }
                FdOp::Write(data) => {
                    kernel.write(writer, data).unwrap();
                    if model.len() < write_off {
                        model.resize(write_off, 0);
                    }
                    let overlap = (model.len() - write_off).min(data.len());
                    model[write_off..write_off + overlap].copy_from_slice(&data[..overlap]);
                    model.extend_from_slice(&data[overlap..]);
                    write_off += data.len();
                }
                FdOp::Append(data) => {
                    let fd = kernel.fs_open("/f", OpenMode::Append).unwrap();
                    kernel.write(fd, data).unwrap();
                    kernel.close(fd).unwrap();
                    model.extend_from_slice(data);
                }
                FdOp::Truncate => {
                    kernel.close(kernel.fs_open("/f", OpenMode::Write).unwrap()).unwrap();
                    model.clear();
                }
                FdOp::ReadAll => {
                    let fd = kernel.fs_open("/f", OpenMode::Read).unwrap();
                    let got = kernel.read(fd, usize::MAX, None).unwrap();
                    kernel.close(fd).unwrap();
                    prop_assert_eq!(&got[..], &model[..]);
                    held.push((got, model.clone()));
                }
            }
            prop_assert_eq!(kernel.fs_stat("/f").unwrap().size, model.len() as u64);
        }
        prop_assert_eq!(kernel.fs().read_file("/f").unwrap(), model);
        for (buf, bytes) in &held {
            prop_assert_eq!(&buf[..], &bytes[..]);
        }
    }

    /// The filesystem behaves exactly like a `HashMap<path, bytes>`.
    #[test]
    fn memfs_agrees_with_map_model(ops in proptest::collection::vec(arb_fs_op(), 0..60)) {
        let fs = MemFs::new();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        for op in &ops {
            match op {
                FsOp::WriteFile(n, data) => {
                    let path = format!("/f{n}");
                    fs.write_file(&path, data).unwrap();
                    model.insert(path, data.clone());
                }
                FsOp::ReadFile(n) => {
                    let path = format!("/f{n}");
                    match model.get(&path) {
                        Some(want) => prop_assert_eq!(&fs.read_file(&path).unwrap(), want),
                        None => prop_assert_eq!(fs.read_file(&path).unwrap_err(), Errno::NoEnt),
                    }
                }
                FsOp::Unlink(n) => {
                    let path = format!("/f{n}");
                    match model.remove(&path) {
                        Some(_) => fs.unlink(&path).unwrap(),
                        None => prop_assert_eq!(fs.unlink(&path).unwrap_err(), Errno::NoEnt),
                    }
                }
                FsOp::Stat(n) => {
                    let path = format!("/f{n}");
                    match model.get(&path) {
                        Some(want) => {
                            let st = fs.stat(&path).unwrap();
                            prop_assert_eq!(st.size, want.len() as u64);
                        }
                        None => prop_assert_eq!(fs.stat(&path).unwrap_err(), Errno::NoEnt),
                    }
                }
                FsOp::CreateNew(n) => {
                    let path = format!("/f{n}");
                    if let std::collections::hash_map::Entry::Vacant(slot) = model.entry(path.clone()) {
                        fs.open(&path, OpenMode::CreateNew).unwrap();
                        slot.insert(Vec::new());
                    } else {
                        prop_assert_eq!(fs.open(&path, OpenMode::CreateNew).err(),
                                        Some(Errno::Exist));
                    }
                }
                FsOp::List => {
                    let mut want: Vec<String> = model.keys()
                        .map(|p| p.trim_start_matches('/').to_string())
                        .collect();
                    want.sort();
                    prop_assert_eq!(fs.list("/").unwrap(), want);
                }
            }
        }
    }

    /// Byte streams deliver exactly the written bytes, in order, across
    /// arbitrary chunkings on both sides.
    #[test]
    fn streams_preserve_bytes(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..128), 1..20),
        read_size in 1usize..64,
    ) {
        let kernel = VirtualKernel::new();
        let listener = kernel.listen(9300).unwrap();
        let client = kernel.connect(9300).unwrap();
        let server = kernel.accept(listener).unwrap();

        let expected: Vec<u8> = chunks.iter().flatten().copied().collect();
        let writer = {
            let kernel = kernel.clone();
            let chunks = chunks.clone();
            std::thread::spawn(move || {
                for chunk in &chunks {
                    kernel.client_send(client, chunk).unwrap();
                }
                kernel.close(client).unwrap();
            })
        };
        let mut got = Vec::new();
        loop {
            match kernel.read(server, read_size, Some(Duration::from_secs(5))) {
                Ok(data) if data.is_empty() => break,
                Ok(data) => got.extend_from_slice(&data),
                Err(e) => prop_assert!(false, "read failed: {e}"),
            }
        }
        writer.join().unwrap();
        prop_assert_eq!(got, expected);
    }

    /// Descriptor allocation is dense, unique, and never reuses numbers.
    #[test]
    fn fds_are_unique(n in 1usize..40) {
        let kernel = VirtualKernel::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            let fd = kernel.fs_open(&format!("/x{i}"), OpenMode::Write).unwrap();
            prop_assert!(seen.insert(fd));
            kernel.close(fd).unwrap();
        }
    }
}
