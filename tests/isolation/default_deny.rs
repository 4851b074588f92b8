//! Hypercalls are default-deny (§5.1: "Wasp provides no externally
//! observable behavior through hypercalls other than the ability to exit
//! the virtual context"). Every test walks `wasp::hypercall::TABLE`
//! itself, so a row added to the table is checked here without a word
//! written for it.

use virtines::hostsim::{HostKernel, SockId};
use virtines::kvmsim::Hypervisor;
use virtines::vclock::Clock;
use virtines::visa::asm::Image;
use virtines::wasp::hypercall::{self, ArgKind, Hypercall, TABLE};
use virtines::wasp::{
    nr, CleanShell, ExitKind, HypercallMask, Invocation, RunResult, Shell, ShellRun, VirtineSpec,
    Wasp, WaspConfig,
};

use super::turn;

const MEM: usize = 64 * 1024;

/// A guest that makes `call` once, with well-formed arguments of its
/// row's kinds (the path `/f`, a buffer, descriptor 1), then halts.
fn caller(call: &Hypercall) -> Image {
    let mut regs = Vec::new();
    for kind in call.args {
        regs.extend_from_slice(match kind {
            ArgKind::Value | ArgKind::Flags(_) => &["0"][..],
            ArgKind::Fd => &["1"],
            ArgKind::In | ArgKind::Path => &["path", "2"],
            ArgKind::Out => &["0x4000", "64"],
            ArgKind::OutU64 => &["0x4000"],
        });
    }
    let mut src = format!(
        ".org 0x8000\n mov r0, HC_{}\n",
        call.name.to_ascii_uppercase()
    );
    for (r, value) in regs.iter().enumerate() {
        src += &format!(" mov r{}, {value}\n", r + 1);
    }
    src += " out HC_PORT, r0\n hlt\npath: .ascii \"/f\"\n";
    hypercall::assemble(&src).unwrap()
}

/// A runtime whose host has a file `/f`, and a connection whose peer has
/// already sent `ping`: everything a call could touch.
fn host() -> (Wasp, SockId, SockId) {
    let kernel = HostKernel::new(Clock::new(), None);
    kernel.fs_add_file("/f", b"file bytes".to_vec());
    kernel.net_listen(80).unwrap();
    let client = kernel.net_connect(80).unwrap();
    let server = kernel.net_accept(80).unwrap().unwrap();
    kernel.net_send(client, b"ping").unwrap();
    let wasp = Wasp::new(Hypervisor::kvm(kernel), WaspConfig::default());
    (wasp, client, server)
}

fn invocation(server: SockId) -> Invocation {
    let mut invocation = Invocation::with_conn(server);
    invocation.payload = b"payload".to_vec();
    invocation
}

#[test]
fn under_deny_all_every_row_but_exit_and_snapshot_is_denied_with_no_host_effect() {
    let _turn = turn();
    for call in TABLE.iter().filter(|c| !c.deny_all) {
        let (wasp, client, server) = host();
        let k = wasp.kernel();
        let fd_before = k.sys_open("/f").unwrap().0;
        let out = wasp
            .launch_once(
                caller(call),
                MEM,
                HypercallMask::DENY_ALL,
                invocation(server),
            )
            .unwrap();
        let what = call.name;
        assert_eq!(out.exit, ExitKind::Denied { nr: call.nr }, "{what}");
        assert_eq!(wasp.stats().denials, 1, "{what}");
        assert!(out.invocation.stdout.is_empty(), "{what} wrote stdout");
        assert!(out.invocation.result.is_empty(), "{what} returned data");
        assert_eq!(out.invocation.get_data_requests, 0, "{what}");
        // No file was opened, nothing was sent and nothing was received.
        assert_eq!(
            k.sys_open("/f").unwrap().0,
            fd_before + 1,
            "{what} opened a file"
        );
        assert_eq!(k.net_recv(client, 64).unwrap(), None, "{what} sent bytes");
        let queued = k.net_recv(server, 64).unwrap();
        assert_eq!(
            queued.as_deref(),
            Some(&b"ping"[..]),
            "{what} read the connection"
        );
    }
}

#[test]
fn exit_and_snapshot_run_under_deny_all() {
    let _turn = turn();
    let survivors: Vec<_> = TABLE.iter().filter(|c| c.deny_all).map(|c| c.nr).collect();
    assert_eq!(survivors, [nr::EXIT, nr::SNAPSHOT]);
    for call in TABLE.iter().filter(|c| c.deny_all) {
        let (wasp, _client, server) = host();
        // A snapshotting spec, so `snapshot` really captures one.
        let spec = VirtineSpec::new(call.name, caller(call), MEM);
        assert_eq!(spec.policy, HypercallMask::DENY_ALL);
        let id = wasp.register(spec).unwrap();
        let out = wasp.run(id, &[], invocation(server)).unwrap();
        assert!(out.exit.is_normal(), "{}: {:?}", call.name, out.exit);
        assert_eq!(wasp.stats().denials, 0, "{}", call.name);
        let taken = u64::from(call.nr == nr::SNAPSHOT);
        assert_eq!(wasp.stats().snapshots_taken, taken, "{}", call.name);
    }
}

#[test]
fn a_narrowing_mask_never_widens_the_specs() {
    let _turn = turn();
    // Every mask the table can name: deny-all, allow-all, and deny-all
    // plus each single row.
    let mut masks = vec![HypercallMask::DENY_ALL, HypercallMask::ALLOW_ALL];
    masks.extend(TABLE.iter().map(|c| HypercallMask::allowing(&[c.nr])));
    for &spec in &masks {
        for &narrow in &masks {
            let both = spec.intersect(narrow);
            for n in 0..64 {
                assert!(!both.allows(n) || spec.allows(n) && narrow.allows(n), "{n}");
            }
        }
    }
    // Through the runtime: a caller passing ALLOW_ALL as its narrowing
    // mask still meets the spec's deny-all.
    for call in TABLE.iter().filter(|c| !c.deny_all) {
        let (wasp, _client, server) = host();
        let spec = VirtineSpec::new(call.name, caller(call), MEM).with_snapshot(false);
        let id = wasp.register(spec).unwrap();
        let run = ShellRun {
            shell: Shell::Created(CleanShell::create(wasp.hypervisor(), MEM)),
            id,
            args: &[],
            invocation: invocation(server),
            narrow: HypercallMask::ALLOW_ALL,
            resumable: true,
        };
        let RunResult::Done(out, _) = wasp.run_on_shell(run).unwrap() else {
            panic!("{}: a denied call never parks", call.name);
        };
        assert_eq!(out.exit, ExitKind::Denied { nr: call.nr }, "{}", call.name);
    }
}

#[test]
fn a_number_past_the_table_is_killed_when_allowed_and_denied_when_masked() {
    let _turn = turn();
    let past = TABLE.len() as u64;
    for n in past..past + 4 {
        let img = hypercall::assemble(&format!(
            ".org 0x8000\n mov r0, {n}\n out HC_PORT, r0\n hlt\n"
        ))
        .unwrap();
        let (wasp, _client, server) = host();
        let allow = HypercallMask::ALLOW_ALL;
        let out = wasp
            .launch_once(img.clone(), MEM, allow, invocation(server))
            .unwrap();
        assert_eq!(out.exit, ExitKind::Killed("unknown hypercall"), "{n}");
        let out = wasp
            .launch_once(img, MEM, HypercallMask::DENY_ALL, invocation(server))
            .unwrap();
        assert_eq!(out.exit, ExitKind::Denied { nr: n }, "{n}");
        assert_eq!(wasp.stats().denials, 1, "{n}");
    }
}
