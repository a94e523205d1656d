//! The campaign-submission client behind `bvf fuzz --remote`.

use std::time::Duration;

use bvf_telemetry::CampaignStats;

use crate::fabric::proto::{
    CampaignStatus, FrameConn, Request, Response, Role, FABRIC_MAGIC, FABRIC_VERSION,
};
use crate::fabric::{FabricCounters, FabricError};
use crate::fuzz::{CampaignConfig, FindingRecord};

/// A handshaken client connection to a coordinator.
pub struct Client {
    conn: FrameConn,
}

/// Final merged result of a remote campaign.
pub struct RemoteOutcome {
    /// Schema-v2 stats, byte-identical (modulo observational `metrics`)
    /// to a local run of the same config.
    pub stats: CampaignStats,
    /// The merged, deduplicated, triaged findings.
    pub findings: Vec<FindingRecord>,
}

impl Client {
    /// Connects and performs the hello/version handshake.
    pub fn connect(addr: &str) -> Result<Client, FabricError> {
        let mut conn = FrameConn::connect(addr)?;
        match conn.rpc(&Request::Hello {
            magic: FABRIC_MAGIC.to_string(),
            version: FABRIC_VERSION,
            role: Role::Client,
        })? {
            Response::Welcome { .. } => Ok(Client { conn }),
            Response::Refused { reason } => Err(FabricError::Refused(reason)),
            other => Err(FabricError::unexpected("Welcome", &other)),
        }
    }

    /// Submits a campaign; returns its id.
    pub fn submit(&mut self, config: CampaignConfig) -> Result<u64, FabricError> {
        match self.conn.rpc(&Request::Submit { config })? {
            Response::Submitted { campaign } => Ok(campaign),
            Response::Error { reason } => Err(FabricError::Refused(reason)),
            other => Err(FabricError::unexpected("Submitted", &other)),
        }
    }

    /// Fetches a campaign's live status.
    pub fn status(&mut self, campaign: u64) -> Result<CampaignStatus, FabricError> {
        match self.conn.rpc(&Request::Status { campaign })? {
            Response::StatusReport(s) => Ok(s),
            Response::Unknown { campaign } => Err(FabricError::Protocol(format!(
                "campaign {campaign} unknown to coordinator"
            ))),
            other => Err(FabricError::unexpected("StatusReport", &other)),
        }
    }

    /// Fetches a campaign's merged result, or `None` while batches are
    /// still outstanding.
    pub fn result(&mut self, campaign: u64) -> Result<Option<RemoteOutcome>, FabricError> {
        match self.conn.rpc(&Request::FetchResult { campaign })? {
            Response::ResultReady { stats, findings } => {
                Ok(Some(RemoteOutcome { stats, findings }))
            }
            Response::Pending => Ok(None),
            Response::Unknown { campaign } => Err(FabricError::Protocol(format!(
                "campaign {campaign} unknown to coordinator"
            ))),
            other => Err(FabricError::unexpected("ResultReady | Pending", &other)),
        }
    }

    /// Fetches the coordinator's scheduling counters.
    pub fn counters(&mut self) -> Result<FabricCounters, FabricError> {
        match self.conn.rpc(&Request::Counters)? {
            Response::CounterReport(c) => Ok(c),
            other => Err(FabricError::unexpected("CounterReport", &other)),
        }
    }

    /// Asks the coordinator to exit its serve loop.
    pub fn shutdown(&mut self) -> Result<(), FabricError> {
        match self.conn.rpc(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(FabricError::unexpected("Bye", &other)),
        }
    }

    /// Submits `config` and blocks until the campaign merges, invoking
    /// `progress` with every status poll along the way.
    pub fn run_to_completion(
        &mut self,
        config: CampaignConfig,
        poll: Duration,
        mut progress: impl FnMut(&CampaignStatus),
    ) -> Result<RemoteOutcome, FabricError> {
        let id = self.submit(config)?;
        loop {
            let status = self.status(id)?;
            progress(&status);
            if status.complete {
                break;
            }
            std::thread::sleep(poll);
        }
        self.result(id)?.ok_or_else(|| {
            FabricError::Protocol("campaign reported complete but result is pending".to_string())
        })
    }
}
