//! The iSCSI-lite target: serves a block device to one initiator.

use std::sync::Arc;
use std::thread::JoinHandle;

use prins_block::{BlockDevice, Lba};
use prins_net::{NetError, Transport};

use crate::cdb::Cdb;
use crate::error::IscsiError;
use crate::pdu::ScsiStatus;
use crate::{Opcode, Pdu};

/// The largest data segment the target sends or solicits in one PDU.
const MAX_DATA_SEGMENT: usize = 64 * 1024;

/// A target bound to one [`BlockDevice`].
///
/// The paper's PRINS-engine lives inside such a target; here the target
/// is generic over the device, so serving a plain volume, a RAID array
/// or a PRINS-wrapped engine is the same code path.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Target {
    device: Arc<dyn BlockDevice>,
    stat_sn: u32,
}

impl Target {
    /// Creates a target serving `device` with a 64 KB data segment
    /// limit.
    pub(crate) fn new(device: Arc<dyn BlockDevice>) -> Self {
        Self { device, stat_sn: 1 }
    }

    /// Serves one connection until logout or disconnect.
    ///
    /// # Errors
    ///
    /// Protocol violations and unexpected transport failures are
    /// returned; a clean logout or an orderly peer disconnect returns
    /// `Ok(())`.
    pub(crate) fn serve<T: Transport>(mut self, transport: T) -> Result<(), IscsiError> {
        // Login phase.
        let first = match transport.recv() {
            Ok(bytes) => Pdu::from_bytes(&bytes)?,
            Err(NetError::Disconnected) => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        if first.bhs.opcode != Opcode::LoginRequest {
            return Err(IscsiError::Protocol(format!(
                "first pdu must be a login request, got {:?}",
                first.bhs.opcode
            )));
        }
        let mut resp = Pdu::with_data(
            Opcode::LoginResponse,
            format!("TargetPortalGroupTag=1\0MaxRecvDataSegmentLength={MAX_DATA_SEGMENT}\0")
                .into_bytes(),
        );
        resp.bhs.itt = first.bhs.itt;
        resp.bhs.flags = 0x80; // final, transition to full-feature phase
        resp.bhs.exp_stat_sn = self.next_stat_sn();
        transport.send(&resp.to_bytes())?;

        // Full-feature phase.
        loop {
            let pdu = match transport.recv() {
                Ok(bytes) => Pdu::from_bytes(&bytes)?,
                Err(NetError::Disconnected) => return Ok(()),
                Err(e) => return Err(e.into()),
            };
            match pdu.bhs.opcode {
                Opcode::ScsiCommand => self.handle_command(&transport, &pdu)?,
                Opcode::NopOut => {
                    let mut nop = Pdu::with_data(Opcode::NopIn, pdu.data.clone());
                    nop.bhs.itt = pdu.bhs.itt;
                    nop.bhs.exp_stat_sn = self.next_stat_sn();
                    transport.send(&nop.to_bytes())?;
                }
                Opcode::LogoutRequest => {
                    let mut out = Pdu::new(Opcode::LogoutResponse);
                    out.bhs.itt = pdu.bhs.itt;
                    out.bhs.exp_stat_sn = self.next_stat_sn();
                    transport.send(&out.to_bytes())?;
                    return Ok(());
                }
                other => {
                    return Err(IscsiError::Protocol(format!(
                        "unexpected {other:?} in full-feature phase"
                    )))
                }
            }
        }
    }

    /// Serves one connection, until logout or disconnect, on a
    /// dedicated thread (the paper's "iSCSI target thread"), returning
    /// its handle. Protocol violations and unexpected transport
    /// failures are reported by the thread's `Result`.
    pub fn spawn<T: Transport + 'static>(
        device: Arc<dyn BlockDevice>,
        transport: T,
    ) -> JoinHandle<Result<(), IscsiError>> {
        let target = Target::new(device);
        std::thread::spawn(move || target.serve(transport))
    }

    fn next_stat_sn(&mut self) -> u32 {
        let sn = self.stat_sn;
        self.stat_sn = self.stat_sn.wrapping_add(1);
        sn
    }

    fn send_status<T: Transport>(
        &mut self,
        transport: &T,
        itt: u32,
        status: ScsiStatus,
        sense: &str,
    ) -> Result<(), IscsiError> {
        let mut resp = Pdu::with_data(Opcode::ScsiResponse, sense.as_bytes().to_vec());
        resp.bhs.itt = itt;
        resp.bhs.flags = 0x80 | status as u8;
        resp.bhs.exp_stat_sn = self.next_stat_sn();
        transport.send(&resp.to_bytes())?;
        Ok(())
    }

    /// Runs the R2T flow for a write of `total` bytes: grants transfers
    /// bounded by the data segment limit and reassembles the Data-Out
    /// PDUs. Returns `None` after sending an error status itself.
    fn solicit_data<T: Transport>(
        &mut self,
        transport: &T,
        itt: u32,
        total: usize,
    ) -> Result<Option<Vec<u8>>, IscsiError> {
        let mut data = vec![0u8; total];
        let mut offset = 0usize;
        while offset < total {
            let length = (total - offset).min(MAX_DATA_SEGMENT);
            let mut r2t = Pdu::new(Opcode::R2t);
            r2t.bhs.itt = itt;
            r2t.bhs.dword5 = offset as u32;
            r2t.bhs.cmd_sn = length as u32; // desired data transfer length
            transport.send(&r2t.to_bytes())?;

            let out = Pdu::from_bytes(&transport.recv()?)?;
            if out.bhs.opcode != Opcode::DataOut
                || out.bhs.itt != itt
                || out.bhs.dword5 as usize != offset
                || out.data.len() != length
            {
                self.send_status(
                    transport,
                    itt,
                    ScsiStatus::CheckCondition,
                    "data-out did not match the outstanding r2t",
                )?;
                return Ok(None);
            }
            data[offset..offset + length].copy_from_slice(&out.data);
            offset += length;
        }
        Ok(Some(data))
    }

    fn handle_command<T: Transport>(&mut self, transport: &T, pdu: &Pdu) -> Result<(), IscsiError> {
        let itt = pdu.bhs.itt;
        let cdb = match Cdb::from_bytes(&pdu.bhs.cdb) {
            Ok(cdb) => cdb,
            Err(e) => {
                return self.send_status(
                    transport,
                    itt,
                    ScsiStatus::CheckCondition,
                    &format!("invalid cdb: {e}"),
                )
            }
        };
        let geometry = self.device.geometry();
        let bs = geometry.block_size().bytes();
        match cdb {
            Cdb::TestUnitReady => self.send_status(transport, itt, ScsiStatus::Good, ""),
            Cdb::ReadCapacity10 => {
                let max_lba = geometry.num_blocks().saturating_sub(1) as u32;
                let mut data = Vec::with_capacity(8);
                data.extend_from_slice(&max_lba.to_be_bytes());
                data.extend_from_slice(&(bs as u32).to_be_bytes());
                let mut din = Pdu::with_data(Opcode::DataIn, data);
                din.bhs.itt = itt;
                din.bhs.flags = 0x80;
                transport.send(&din.to_bytes())?;
                self.send_status(transport, itt, ScsiStatus::Good, "")
            }
            Cdb::SynchronizeCache10 => match self.device.flush() {
                Ok(()) => self.send_status(transport, itt, ScsiStatus::Good, ""),
                Err(e) => self.send_status(
                    transport,
                    itt,
                    ScsiStatus::CheckCondition,
                    &format!("flush failed: {e}"),
                ),
            },
            Cdb::Read10 { lba, blocks } => {
                let total = blocks as usize * bs;
                let mut payload = vec![0u8; total];
                for i in 0..blocks as u64 {
                    if let Err(e) = self.device.read_block(
                        Lba(lba as u64 + i),
                        &mut payload[i as usize * bs..(i as usize + 1) * bs],
                    ) {
                        return self.send_status(
                            transport,
                            itt,
                            ScsiStatus::CheckCondition,
                            &format!("read failed: {e}"),
                        );
                    }
                }
                // Deliver as Data-In segments of at most MAX_DATA_SEGMENT.
                let mut off = 0usize;
                while off < payload.len() || (payload.is_empty() && off == 0) {
                    let end = (off + MAX_DATA_SEGMENT).min(payload.len());
                    let is_final = end == payload.len();
                    let mut din = Pdu::with_data(Opcode::DataIn, payload[off..end].to_vec());
                    din.bhs.itt = itt;
                    din.bhs.dword5 = off as u32;
                    din.bhs.flags = if is_final { 0x80 } else { 0x00 };
                    transport.send(&din.to_bytes())?;
                    off = end;
                    if is_final {
                        break;
                    }
                }
                self.send_status(transport, itt, ScsiStatus::Good, "")
            }
            Cdb::Write10 { lba, blocks } => {
                let total = blocks as usize * bs;
                let data = if pdu.data.len() == total {
                    // Immediate data: the whole payload rode along.
                    pdu.data.clone()
                } else if pdu.data.is_empty() && total > 0 {
                    // Solicited data: grant R2Ts and collect Data-Out.
                    match self.solicit_data(transport, itt, total)? {
                        Some(data) => data,
                        None => return Ok(()), // status already sent
                    }
                } else {
                    return self.send_status(
                        transport,
                        itt,
                        ScsiStatus::CheckCondition,
                        &format!(
                            "write carries {} bytes, expected {total} for {blocks} blocks",
                            pdu.data.len()
                        ),
                    );
                };
                for i in 0..blocks as usize {
                    if let Err(e) = self
                        .device
                        .write_block(Lba(lba as u64 + i as u64), &data[i * bs..(i + 1) * bs])
                    {
                        return self.send_status(
                            transport,
                            itt,
                            ScsiStatus::CheckCondition,
                            &format!("write failed: {e}"),
                        );
                    }
                }
                self.send_status(transport, itt, ScsiStatus::Good, "")
            }
        }
    }
}

impl std::fmt::Debug for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Target")
            .field("geometry", &self.device.geometry())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Initiator;
    use prins_block::{BlockSize, MemDevice};
    use prins_net::{channel_pair, LinkModel, TcpTransport};

    fn setup(
        blocks: u64,
    ) -> (
        Initiator<prins_net::ChannelTransport>,
        JoinHandle<Result<(), IscsiError>>,
        Arc<MemDevice>,
    ) {
        let (client, server) = channel_pair(LinkModel::gigabit_lan());
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), blocks));
        let handle = Target::spawn(Arc::clone(&device) as Arc<dyn BlockDevice>, server);
        let ini = Initiator::login(client, "iqn.2006-04.edu.uri.test").unwrap();
        (ini, handle, device)
    }

    /// A logged-in session driven PDU by PDU, for the target paths the
    /// [`Initiator`] does not use.
    fn raw_session(
        blocks: u64,
    ) -> (
        prins_net::ChannelTransport,
        JoinHandle<Result<(), IscsiError>>,
        Arc<MemDevice>,
    ) {
        let (client, server) = channel_pair(LinkModel::gigabit_lan());
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), blocks));
        let handle = Target::spawn(Arc::clone(&device) as Arc<dyn BlockDevice>, server);
        client
            .send(&Pdu::new(Opcode::LoginRequest).to_bytes())
            .unwrap();
        assert_eq!(recv_pdu(&client).bhs.opcode, Opcode::LoginResponse);
        (client, handle, device)
    }

    fn recv_pdu(client: &prins_net::ChannelTransport) -> Pdu {
        Pdu::from_bytes(&client.recv().unwrap()).unwrap()
    }

    fn command(cdb: Cdb, itt: u32) -> Pdu {
        let mut pdu = Pdu::new(Opcode::ScsiCommand);
        pdu.bhs.itt = itt;
        pdu.bhs.cdb = cdb.to_bytes();
        pdu
    }

    #[test]
    fn test_unit_ready_and_nop_are_answered() {
        let (client, handle, _dev) = raw_session(8);
        client
            .send(&command(Cdb::TestUnitReady, 1).to_bytes())
            .unwrap();
        let resp = recv_pdu(&client);
        assert_eq!(resp.bhs.opcode, Opcode::ScsiResponse);
        assert_eq!(resp.bhs.flags & 0x3f, ScsiStatus::Good as u8);
        let mut nop = Pdu::with_data(Opcode::NopOut, b"ping?".to_vec());
        nop.bhs.itt = 2;
        client.send(&nop.to_bytes()).unwrap();
        let echo = recv_pdu(&client);
        assert_eq!((echo.bhs.opcode, echo.bhs.itt), (Opcode::NopIn, 2));
        assert_eq!(echo.data, b"ping?");
        drop(client);
        handle.join().unwrap().unwrap();
    }

    /// Sends a Write10 without immediate data and answers every R2T
    /// grant with its Data-Out; returns the final response and the
    /// grant lengths.
    fn r2t_write(
        client: &prins_net::ChannelTransport,
        lba: u32,
        data: &[u8],
        itt: u32,
    ) -> (Pdu, Vec<usize>) {
        let blocks = (data.len() / 4096) as u16;
        client
            .send(&command(Cdb::Write10 { lba, blocks }, itt).to_bytes())
            .unwrap();
        let mut grants = Vec::new();
        loop {
            let pdu = recv_pdu(client);
            if pdu.bhs.opcode != Opcode::R2t {
                return (pdu, grants);
            }
            let (offset, length) = (pdu.bhs.dword5 as usize, pdu.bhs.cmd_sn as usize);
            let mut out = Pdu::with_data(Opcode::DataOut, data[offset..offset + length].to_vec());
            out.bhs.itt = itt;
            out.bhs.dword5 = offset as u32;
            client.send(&out.to_bytes()).unwrap();
            grants.push(length);
        }
    }

    #[test]
    fn write_without_immediate_data_is_solicited_by_r2t_segments() {
        let (client, handle, device) = raw_session(64);
        // 128 KB: two grants of the 64 KB segment limit.
        let data: Vec<u8> = (0..4096 * 32).map(|i| (i % 253) as u8).collect();
        let (resp, grants) = r2t_write(&client, 0, &data, 7);
        assert_eq!(grants, [MAX_DATA_SEGMENT; 2]);
        assert_eq!(resp.bhs.flags & 0x3f, ScsiStatus::Good as u8);
        assert_eq!(device.read_block_vec(Lba(31)).unwrap(), data[31 * 4096..]);
        drop(client);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn r2t_write_past_the_device_end_reports_check_condition() {
        let (client, handle, _dev) = raw_session(4);
        // Blocks 3 and 4 of a 4-block device: the data is solicited,
        // then the device rejects block 4.
        let (resp, grants) = r2t_write(&client, 3, &[0u8; 4096 * 2], 9);
        assert_eq!(grants, [4096 * 2]);
        assert_eq!(resp.bhs.opcode, Opcode::ScsiResponse);
        assert_eq!(resp.bhs.itt, 9);
        assert_eq!(resp.bhs.flags & 0x3f, ScsiStatus::CheckCondition as u8);
        // The session survives the error.
        let (resp, _) = r2t_write(&client, 0, &[1u8; 4096], 10);
        assert_eq!(resp.bhs.flags & 0x3f, ScsiStatus::Good as u8);
        drop(client);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn login_discovers_capacity() {
        let (ini, handle, _dev) = setup(64);
        assert_eq!(ini.num_blocks(), 64);
        assert_eq!(ini.block_size(), 4096);
        ini.logout().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn write_then_read_round_trips_through_the_wire() {
        let (mut ini, handle, device) = setup(64);
        let data = vec![0x77u8; 4096 * 3];
        ini.write_blocks(10, &data).unwrap();
        assert_eq!(ini.read_blocks(10, 3).unwrap(), data);
        // The device actually holds the data.
        assert_eq!(device.read_block_vec(Lba(11)).unwrap(), vec![0x77u8; 4096]);
        ini.logout().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn large_read_is_segmented_into_multiple_data_in_pdus() {
        let (mut ini, handle, _dev) = setup(64);
        // 128 KB: two Data-In segments of MAX_DATA_SEGMENT.
        let data: Vec<u8> = (0..4096 * 32).map(|i| (i % 251) as u8).collect();
        ini.write_blocks(0, &data).unwrap();
        assert_eq!(ini.read_blocks(0, 32).unwrap(), data);
        ini.logout().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn out_of_range_io_returns_check_condition() {
        let (mut ini, handle, _dev) = setup(8);
        let err = ini.read_blocks(8, 1).unwrap_err();
        assert!(matches!(err, IscsiError::CheckCondition(_)), "{err}");
        let err = ini.write_blocks(7, &vec![0u8; 4096 * 2]).unwrap_err();
        assert!(matches!(err, IscsiError::CheckCondition(_)), "{err}");
        // Session still usable after an error.
        ini.write_blocks(7, &vec![1u8; 4096]).unwrap();
        ini.logout().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn synchronize_cache_succeeds() {
        let (mut ini, handle, _dev) = setup(8);
        ini.synchronize_cache().unwrap();
        ini.logout().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn misaligned_write_is_rejected_client_side() {
        let (mut ini, handle, _dev) = setup(8);
        assert!(matches!(
            ini.write_blocks(0, &[0u8; 100]),
            Err(IscsiError::Protocol(_))
        ));
        ini.logout().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn target_rejects_commands_before_login() {
        let (client, server) = channel_pair(LinkModel::gigabit_lan());
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let handle = Target::spawn(device, server);
        // Send a SCSI command as the first PDU.
        use prins_net::Transport as _;
        let mut pdu = Pdu::new(Opcode::ScsiCommand);
        pdu.bhs.cdb = Cdb::TestUnitReady.to_bytes();
        client.send(&pdu.to_bytes()).unwrap();
        let result = handle.join().unwrap();
        assert!(matches!(result, Err(IscsiError::Protocol(_))));
    }

    #[test]
    fn disconnect_without_logout_is_a_clean_exit() {
        let (client, server) = channel_pair(LinkModel::gigabit_lan());
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
        let handle = Target::spawn(device, server);
        let ini = Initiator::login(client, "iqn.test").unwrap();
        drop(ini); // connection drops without logout
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn works_over_real_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 32));
        let dev2 = Arc::clone(&device);
        let handle = std::thread::spawn(move || {
            let server = TcpTransport::accept(&listener, LinkModel::gigabit_lan()).unwrap();
            Target::spawn(dev2 as Arc<dyn BlockDevice>, server)
                .join()
                .unwrap()
        });
        let client = TcpTransport::connect(addr, LinkModel::gigabit_lan()).unwrap();
        let mut ini = Initiator::login(client, "iqn.tcp.test").unwrap();
        let data = vec![0x99u8; 4096];
        ini.write_blocks(5, &data).unwrap();
        assert_eq!(ini.read_blocks(5, 1).unwrap(), data);
        ini.logout().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn traffic_meter_counts_pdu_bytes() {
        use prins_net::Transport as _;
        let (client, server) = channel_pair(LinkModel::gigabit_lan());
        let meter = Arc::clone(client.meter());
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 16));
        let handle = Target::spawn(device, server);
        let mut ini = Initiator::login(client, "iqn.meter.test").unwrap();
        let before = meter.payload_bytes_sent();
        ini.write_blocks(0, &vec![0u8; 4096]).unwrap();
        let after = meter.payload_bytes_sent();
        // One write: 48-byte BHS + 4096 data.
        assert_eq!(after - before, 48 + 4096);
        ini.logout().unwrap();
        handle.join().unwrap().unwrap();
    }
}
